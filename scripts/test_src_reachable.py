"""Every library source under src/ must be reached from a production root.

The roots are the sources of the paper drivers and perf harness (bench/),
the daemon and client (tools/), the examples (examples/) and the
end-to-end benchmark (perfbench/src/). Quoted #includes are followed
transitively; reaching a header also reaches the .cpp beside it. A
src/**/*.cpp that only tests reach fails the check, so test-only code
cannot creep back into the library.

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import os
import re
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
ROOT_DIRS = ("bench", "tools", "examples", os.path.join("perfbench", "src"))
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
EXTS = (".cpp", ".hpp")


def sources_under(top):
    for dirpath, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(EXTS):
                yield os.path.normpath(os.path.join(dirpath, name))


def resolve(include, from_file):
    for base in (os.path.dirname(from_file), SRC):
        path = os.path.normpath(os.path.join(base, include))
        if os.path.isfile(path):
            return path
    return None


def reached_files():
    todo = [f for d in ROOT_DIRS for f in sources_under(os.path.join(REPO, d))]
    seen = set(todo)
    while todo:
        current = todo.pop()
        with open(current, encoding="utf-8") as f:
            text = f.read()
        found = [resolve(inc, current) for inc in INCLUDE_RE.findall(text)]
        for path in filter(None, found):
            sibling = os.path.splitext(path)[0] + ".cpp"
            for p in (path, sibling):
                if p not in seen and os.path.isfile(p):
                    seen.add(p)
                    todo.append(p)
    return seen


class SrcReachableTest(unittest.TestCase):
    def test_every_src_cpp_is_reached_from_a_production_root(self):
        reached = reached_files()
        unreached = sorted(
            os.path.relpath(p, REPO) for p in sources_under(SRC)
            if p.endswith(".cpp") and p not in reached)
        self.assertEqual(
            unreached, [],
            "reached only from tests (delete them, or reach them from "
            "bench/, tools/, examples/ or perfbench/src/): "
            + ", ".join(unreached))


if __name__ == "__main__":
    unittest.main()
