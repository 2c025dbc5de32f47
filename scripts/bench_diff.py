#!/usr/bin/env python3
"""Diff two google-benchmark JSON snapshots and fail on regressions.

    scripts/bench_diff.py BASELINE.json CURRENT.json [--tolerance 0.25]
                          [--families /dim: /threads: /rows: /wer: /cache:]
                          [--min-speedup SLOW FAST RATIO]
                          [--max-ratio A B RATIO]

Compares `real_time` of every benchmark present in both snapshots whose
name contains one of the family markers (default: the /dim:N, /threads:N,
/rows:N, /wer:N and /cache:N families — matrix-dimension, thread-count,
array-row, write-error-rate and persistent-result-cache scaling
respectively).

Benchmark names are canonicalised before any matching: google-benchmark
appends *run options* to the name (`/min_time:2.000`, `/real_time`,
`/iterations:N`, ...), so re-tuning a benchmark's MinTime silently
renames it — and a rename across snapshots would drop it from the
comparison and let the regression gate pass vacuously. Run-option
segments are stripped from snapshot keys and from --min-speedup /
--max-ratio gate names alike, so both `BM_X/rows:64` and
`BM_X/rows:64/min_time:2.000` address the same benchmark. Argument
families (`/threads:N`, `/rows:N`, ...) are never stripped.

`--min-speedup SLOW FAST RATIO` (repeatable) additionally asserts an
*intra-snapshot* ratio on the current snapshot:
current[SLOW] / current[FAST] >= RATIO. This is how absolute acceptance
criteria (e.g. "the batched LLG kernel is >= 1.8x its scalar reference")
stay enforced on hardware whose absolute numbers differ from the committed
baseline's. `--max-ratio A B RATIO` (repeatable) is the scaling-cost dual:
current[A] / current[B] <= RATIO, bounding how much more a larger problem
instance may cost than a smaller one (e.g. "the rows:256 array write stays
within 4.5x the rows:64 one"). Exits 1 when any matched benchmark regressed
by more than the tolerance (relative to the baseline), 0 otherwise.

Individual benchmarks only present on one side are reported but never
fail the run (families evolve across revisions) — but an entire family
that exists in the baseline and is missing from the current snapshot
fails with a clear diagnostic: that shape of diff means the benchmark
binary dropped (or was built without) a whole scaling family, and a
silent skip would let the regression gate pass vacuously. Stdlib only.
"""

import argparse
import json
import sys


# real_time is normalised to nanoseconds so a revision that changes a
# benchmark's display unit cannot fake a six-orders-of-magnitude delta.
_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Run-option name segments appended by google-benchmark. `key:value`
# options carry a colon and a value; the timing-source markers are bare
# segments. `/threads:N` is deliberately NOT here: in this suite it is an
# Args()-encoded scaling family, and stripping it would fold a whole
# family onto one key.
_RUN_OPTION_PREFIXES = ("min_time:", "min_warmup_time:", "iterations:",
                        "repeats:", "repetitions:")
_RUN_OPTION_SEGMENTS = {"real_time", "process_time", "manual_time"}


def canonical(name):
    """Benchmark name with google-benchmark run-option suffixes removed."""
    return "/".join(
        seg for seg in name.split("/")
        if seg not in _RUN_OPTION_SEGMENTS
        and not seg.startswith(_RUN_OPTION_PREFIXES))


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise SystemExit(f"error: cannot read snapshot '{path}': {e.strerror}")
    except json.JSONDecodeError as e:
        raise SystemExit(f"error: '{path}' is not valid JSON ({e})")
    out = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        unit = bench.get("time_unit", "ns")
        if unit not in _UNIT_NS:
            raise SystemExit(f"{path}: unknown time_unit '{unit}' "
                             f"for {bench['name']}")
        out[canonical(bench["name"])] = \
            float(bench["real_time"]) * _UNIT_NS[unit]
    return out


def missing_families(base, cur, families):
    """Family markers with baseline benchmarks but no current ones."""
    missing = []
    for fam in families:
        base_n = sum(1 for n in base if fam in n)
        cur_n = sum(1 for n in cur if fam in n)
        if base_n > 0 and cur_n == 0:
            missing.append((fam, base_n))
    return missing


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="max allowed relative real_time growth (default 0.25)")
    ap.add_argument("--families", nargs="*",
                    default=["/dim:", "/threads:", "/rows:", "/wer:",
                             "/cache:"],
                    help="benchmark-name substrings to compare")
    ap.add_argument("--min-speedup", nargs=3, action="append", default=[],
                    metavar=("SLOW", "FAST", "RATIO"),
                    help="require current[SLOW]/current[FAST] >= RATIO")
    ap.add_argument("--max-ratio", nargs=3, action="append", default=[],
                    metavar=("A", "B", "RATIO"),
                    help="require current[A]/current[B] <= RATIO")
    args = ap.parse_args(argv)

    base = load(args.baseline)
    cur = load(args.current)

    lost = missing_families(base, cur, args.families)
    if lost:
        for fam, count in lost:
            print(f"error: benchmark family '{fam}' has {count} benchmark(s) "
                  f"in the baseline but none in the current snapshot.",
                  file=sys.stderr)
        print("The benchmark binary dropped an entire scaling family — the "
              "regression gate cannot run vacuously. Restore the family or "
              "refresh the committed baseline deliberately.", file=sys.stderr)
        return 1

    def in_family(name):
        return any(f in name for f in args.families)

    matched = sorted(n for n in base if n in cur and in_family(n))
    only_base = sorted(n for n in base if n not in cur and in_family(n))
    only_cur = sorted(n for n in cur if n not in base and in_family(n))

    regressions = []
    print(f"{'benchmark':60s} {'baseline':>14s} {'current':>14s} {'delta':>8s}")
    for name in matched:
        b = base[name]
        c = cur[name]
        delta = (c - b) / b if b > 0 else 0.0
        flag = " <-- REGRESSION" if delta > args.tolerance else ""
        print(f"{name:60s} {b:14.1f} {c:14.1f} {delta:+7.1%}{flag}  [ns]")
        if delta > args.tolerance:
            regressions.append((name, delta))

    for name in only_base:
        print(f"{name:60s} (baseline only — skipped)")
    for name in only_cur:
        print(f"{name:60s} (current only — no baseline yet)")

    speedup_failures = []
    for slow, fast, ratio in args.min_speedup:
        slow, fast = canonical(slow), canonical(fast)
        want = float(ratio)
        missing = [n for n in (slow, fast) if n not in cur]
        if missing:
            print(f"error: --min-speedup benchmark(s) missing from the "
                  f"current snapshot: {', '.join(missing)}", file=sys.stderr)
            return 1
        got = cur[slow] / cur[fast] if cur[fast] > 0 else 0.0
        flag = "" if got >= want else " <-- BELOW REQUIRED"
        print(f"speedup {slow} / {fast}: {got:.2f}x "
              f"(required >= {want:.2f}x){flag}")
        if got < want:
            speedup_failures.append((slow, fast, got, want))

    ratio_failures = []
    for a, b, ratio in args.max_ratio:
        a, b = canonical(a), canonical(b)
        want = float(ratio)
        missing = [n for n in (a, b) if n not in cur]
        if missing:
            print(f"error: --max-ratio benchmark(s) missing from the "
                  f"current snapshot: {', '.join(missing)}", file=sys.stderr)
            return 1
        got = cur[a] / cur[b] if cur[b] > 0 else float("inf")
        flag = "" if got <= want else " <-- ABOVE ALLOWED"
        print(f"ratio {a} / {b}: {got:.2f}x "
              f"(allowed <= {want:.2f}x){flag}")
        if got > want:
            ratio_failures.append((a, b, got, want))

    if not matched:
        print("warning: no benchmarks matched both snapshots", file=sys.stderr)
    if speedup_failures:
        for slow, fast, got, want in speedup_failures:
            print(f"error: {slow} is only {got:.2f}x {fast} "
                  f"(required >= {want:.2f}x)", file=sys.stderr)
        return 1
    if ratio_failures:
        for a, b, got, want in ratio_failures:
            print(f"error: {a} costs {got:.2f}x {b} "
                  f"(allowed <= {want:.2f}x)", file=sys.stderr)
        return 1
    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed more than "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1%}", file=sys.stderr)
        return 1
    print(f"\nOK: no real_time regression beyond {args.tolerance:.0%} "
          f"across {len(matched)} matched benchmark(s).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
