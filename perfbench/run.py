#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds libmss and the perfbench binary in
Release under $CARGO_TARGET_DIR (default .bench_build); later calls rebuild
only what changed. Build output goes to stderr, so the last stdout line is the
binary's JSON result. A traced run also writes its spans to
<build dir>/traces/<workload>-seed<n>.json.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir, target):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: the libmss sources (CMakeLists.txt, src/) are "
                 "missing next to perfbench/")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", target,
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def arg(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main():
    args = sys.argv[1:]
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"

    if args == ["--self-test"]:
        build(build_dir, "perfbench_test")
        return subprocess.run([str(build_dir / "perfbench_test")]).returncode

    build(build_dir, "perfbench")
    work = build_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    extra = ["--work-dir", os.path.relpath(work, Path.cwd())]
    if arg(args, "--trace") == "1":
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        name = "%s-seed%s.json" % (arg(args, "--workload"), arg(args, "--seed"))
        extra += ["--trace-out", str(traces / name)]
    sys.stdout.flush()
    return subprocess.run([str(build_dir / "perfbench")] + args + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
