#!/usr/bin/env python3
"""Fails listing every src/ file that no bench, example or perfbench reaches.

    python3 .github/check_reachable.py

Walks the `#include "..."` closure from every file under bench/, examples/
and perfbench/. A header is reached when a reached file includes it; a
src/*.cc is reached when it includes a reached header from its own
directory (it implements that header). Exits 1 and prints the unreached
src/ files, one per line, or exits 0 and prints nothing.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOTS = ("bench", "examples", "perfbench")
SOURCE_EXT = (".h", ".cc", ".cpp")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)


def files_under(top):
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXT):
                yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def includes(path):
    """Repo-relative paths of the files `path` includes with quotes."""
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        text = f.read()
    out = []
    for inc in INCLUDE.findall(text):
        for cand in (inc, os.path.join(os.path.dirname(path), inc)):
            cand = os.path.normpath(cand)
            if os.path.isfile(os.path.join(ROOT, cand)):
                out.append(cand)
                break
    return out


def main():
    src = set(files_under("src"))
    reached = set()
    stack = [f for top in ROOTS for f in files_under(top)]
    while True:
        while stack:
            f = stack.pop()
            if f in reached:
                continue
            reached.add(f)
            stack.extend(includes(f))
        for cc in sorted(src - reached):
            if cc.endswith(".h"):
                continue
            here = os.path.dirname(cc)
            if any(os.path.dirname(h) == here and h in reached
                   for h in includes(cc)):
                stack.append(cc)
        if not stack:
            break
    unreached = sorted(src - reached)
    for f in unreached:
        print(f)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
