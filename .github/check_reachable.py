#!/usr/bin/env python3
"""Fails listing src/ code that only tests reach.

    python3 .github/check_reachable.py
    python3 .github/check_reachable.py --tests TREE --programs TREE [TREE ...]

Without options it runs two static passes over the sources:
  - files: walks the `#include "..."` closure from every file under bench/,
    examples/ and perfbench/. A header is reached when a reached file
    includes it; a src/*.cc is reached when it includes a reached header
    from its own directory (it implements that header). Every src/ file
    must be reached.
  - names: every function name declared in src/ must be used somewhere
    other than its own declarations and definitions: in a src/ function or
    in a bench, example or perfbench file. This sees member templates that
    nothing instantiates, which gcov cannot.

With --tests and --programs it diffs gcov function records instead. Each
TREE is a `--coverage` build directory holding .gcda files: the tests tree
ran ctest, the program trees ran the benches, the examples and perfbench.
A src/ function that the tests executed and no program did is reported.
Functions are keyed by file and start line, so every instantiation of a
template counts toward one record.

Findings that ALLOWLIST matches are not reported. Exits 1 and prints the
findings, one per line, or exits 0 and prints nothing.
"""

import argparse
import fnmatch
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOTS = ("bench", "examples", "perfbench")
SOURCE_EXT = (".h", ".cc", ".cpp")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)

# Code that only tests run, kept on purpose: one reason per entry. A pattern
# is matched against "path:name", where name is the bare function name in
# the names pass and the demangled, qualified name in the gcov pass.
ALLOWLIST = [
    # Runtime fallbacks and fault injection.
    ("fault injection: only the chaos tests arm failpoints",
     ["src/util/fail_point.*:*"]),
    ("fallback arms for hardware without SSE2 or SSE4.2, which the "
     "scalar-dispatch and unit tests pin",
     ["src/util/crc32c*:*", "src/util/group_table.h:*ScalarGroup*"]),
    ("the run-time switch that turns instrumentation off",
     ["src/obs/metrics.*:*SetEnabled*"]),
    ("WAL paths a short run does not reach: dropping a window whose seal "
     "exhausted its retries, and unlinking segments once the log rotated",
     ["src/durability/wal.cc:*DropPending*",
      "src/durability/wal.cc:*SegmentFirstLsn*"]),
    ("load shedding, which a bench reaches only when it outruns the "
     "service, so whether it runs depends on the machine's speed",
     ["src/ingest/ingest_service.h:*::Shed(*"]),
    # Ring-kernel branches.
    ("ring operations, kernels and codecs that the workloads' payloads "
     "never reach; the ring-axiom and serialization tests cover them",
     ["src/rings/*:*", "src/util/simd*:*ScalePairTo*",
      "src/util/simd*:*Rank1UpperTo*",
      "src/durability/serialize.h:*RingCodec*"]),
    # Reference code and accessors that tests use to observe state.
    ("container and key value types, tested as a unit",
     ["src/util/small_vector.h:*", "src/util/flat_hash_map.h:*",
      "src/util/group_table.h:*ForEachSlot*",
      "src/data/tuple.h:fivm::Tuple::*", "src/data/tuple.h:fivm::operator==*",
      "src/data/value.h:*operator<*"]),
    ("accessors that tests read to observe state",
     ["src/serve/snapshot_server.h:*RetiredCount*",
      "src/serve/snapshot_server.h:*Snapshot::seq()*",
      "src/serve/snapshot_server.h:*segment_count*",
      "src/serve/snapshot_server.h:*store_count*",
      "src/serve/snapshot_server.h:*base_gen*",
      "src/data/relation.h:*HasIndexOn*",
      "src/data/relation.h:*SecondaryIndexCount*",
      "src/ivme/triangle_engine.h:*HeavySize*",
      "src/ivme/triangle_engine.h:*live_tuples*",
      "src/ivme/triangle_engine.h:*::stats()*",
      "src/core/variable_order.h:*::nodes()*",
      "src/durability/wal.h:*torn_bytes*",
      "src/exec/delta_batcher.h:*::capacity()*",
      "src/linalg/dense_chain_ivm.h:*::a2()*",
      "src/obs/metrics.*:*Histogram::Count()*",
      "src/obs/metrics.*:*Percentile*",
      "src/baselines/recursive_ivm.h:*::result(*"]),
    ("random variable orders for property_sweep_test's branching-order "
     "exploration, which would otherwise copy AutoImpl into tests/",
     ["src/core/variable_order.*:*AutoRandom*"]),
    ("the IVM^ε batch apply, which the equivalence fuzz checks against "
     "per-tuple updates", ["src/ivme/triangle_engine.h:*ApplyDelta*"]),
]


def files_under(top):
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXT):
                yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def read(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        return f.read()


def allowed(path, name):
    return any(fnmatch.fnmatchcase(path + ":" + name, pattern)
               for _, patterns in ALLOWLIST for pattern in patterns)


def includes(path):
    """Repo-relative paths of the files `path` includes with quotes."""
    out = []
    for inc in INCLUDE.findall(read(path)):
        for cand in (inc, os.path.join(os.path.dirname(path), inc)):
            cand = os.path.normpath(cand)
            if os.path.isfile(os.path.join(ROOT, cand)):
                out.append(cand)
                break
    return out


def unreached_files():
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
    return sorted(src - reached)


# Comments, string and character literals, and preprocessor lines carry no
# uses. A character literal is one character or one escape, so the digit
# separators in 1'000'000 are left alone.
LITERALS = re.compile(r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"'
                      r"|'(?:\\[^']{1,8}|[^'\\\n])'", re.S)
DIRECTIVE = re.compile(r'^\s*#[^\n]*(?:\\\n[^\n]*)*', re.M)
IDENT = re.compile(r'\b[A-Za-z_]\w*\b')
CALLED = re.compile(r'\s*\(')
NOT_FUNCTIONS = {"if", "for", "while", "switch", "catch", "return", "sizeof",
                 "decltype", "alignof", "alignas", "static_assert", "noexcept",
                 "operator", "requires", "assert"}
# A prefix holding one of these makes the name a call, not a declaration.
CALL_WORDS = {"return", "else", "new", "delete", "throw", "case", "do",
              "co_return", "co_await", "co_yield", "sizeof", "decltype"}
TYPE_PREFIX = re.compile(r'^[\w\s:<>,*&\[\]~]*$')
ACCESS_LABEL = re.compile(r'\b(?:public|private|protected)\s*:(?!:)')
TEMPLATE_HEAD = re.compile(r'\btemplate\s*<[^;{}]*?>')
QUALIFIERS = re.compile(r'(?:\w+(?:<[^<>]*>)?\s*::\s*)*$')


def code(path):
    text = DIRECTIVE.sub("", read(path))
    return LITERALS.sub(lambda m: " " if m.group(0)[0] == "/" else '""', text)


def declares(text, pos):
    """Whether the name at `pos`, followed by '(', is declared there: the
    statement before it is a return type (and qualifiers), not a call."""
    start = max(text.rfind(c, 0, pos) for c in ";{}") + 1
    prefix = TEMPLATE_HEAD.sub(" ", ACCESS_LABEL.sub(" ", text[start:pos]))
    if (not TYPE_PREFIX.match(prefix) or
            CALL_WORDS & set(IDENT.findall(prefix))):
        return False
    head = QUALIFIERS.sub("", prefix).strip()
    return bool(head) and (head[-1].isalnum() or head[-1] in "_>*&")


def unused_names():
    src = list(files_under("src"))
    programs = [f for top in ROOTS for f in files_under(top)]
    texts = {f: code(f) for f in src + programs}
    declared = {}  # name -> first (path, line) declaring it
    for f in src:
        t = texts[f]
        for m in IDENT.finditer(t):
            name = m.group(0)
            if (name in NOT_FUNCTIONS or name in declared or
                    not CALLED.match(t, m.end()) or
                    not declares(t, m.start())):
                continue
            declared[name] = (f, t.count("\n", 0, m.start()) + 1)
    used = set()
    for f, t in texts.items():
        for m in IDENT.finditer(t):
            name = m.group(0)
            if name not in declared or name in used:
                continue
            if (f.startswith("src/") and CALLED.match(t, m.end()) and
                    declares(t, m.start())):
                continue
            used.add(name)
    out = []
    for name in sorted(set(declared) - used):
        path, line = declared[name]
        if not allowed(path, name):
            out.append("%s:%d: %s is used by no program and no src/ "
                       "function" % (path, line, name))
    return out


def function_counts(tree):
    """{(src path, start line): (execution count, demangled name)}, summed
    over every .gcda file under `tree`."""
    gcda = [os.path.join(d, n) for d, _, names in os.walk(tree)
            for n in names if n.endswith(".gcda")]
    counts = {}
    for i in range(0, len(gcda), 32):
        p = subprocess.run(["gcov", "--json-format", "--stdout"] +
                           gcda[i:i + 32], capture_output=True, text=True,
                           check=True)
        for doc in p.stdout.splitlines():
            if not doc.strip():
                continue
            for rec in json.loads(doc)["files"]:
                at = rec["file"].rfind("/src/")
                path = rec["file"][at + 1:] if at >= 0 else rec["file"]
                if not path.startswith("src/"):
                    continue
                for fn in rec["functions"]:
                    key = (path, fn["start_line"])
                    n, _ = counts.get(key, (0, ""))
                    counts[key] = (n + fn["execution_count"],
                                   fn["demangled_name"])
    return counts


# A lambda's body is a branch of the function that defines it, which is
# what the pass judges: "{lambda(...)#N}::operator()" demangled, "Ul...E_cl"
# when gcov leaves the name mangled.
LAMBDA = re.compile(r"\}::operator\(\)|Ul.*?E\d*_cl")


def test_only_functions(tests, programs):
    ran = {}
    for tree in programs:
        for key, (n, _) in function_counts(tree).items():
            ran[key] = ran.get(key, 0) + n
    out = []
    for (path, line), (n, name) in sorted(function_counts(tests).items()):
        if (n > 0 and ran.get((path, line), 0) == 0 and
                not LAMBDA.search(name) and not allowed(path, name)):
            out.append("%s:%d: %s is run by tests only" % (path, line, name))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tests", help="coverage tree that ran ctest")
    ap.add_argument("--programs", nargs="+", default=[],
                    help="coverage trees that ran the benches, the examples "
                    "and perfbench")
    args = ap.parse_args()
    if bool(args.tests) != bool(args.programs):
        ap.error("--tests and --programs go together")
    if args.tests:
        findings = test_only_functions(args.tests, args.programs)
    else:
        findings = unreached_files() + unused_names()
    for line in findings:
        print(line)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
