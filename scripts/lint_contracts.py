#!/usr/bin/env python3
"""Repo-contract linter: mechanical checks the compiler cannot express.

Rules (each violation prints as ``path:line: [rule] message``):

  raw-sync       No raw ``std::mutex`` / ``std::lock_guard`` / ``std::unique_lock``
                 / ``std::condition_variable`` (and friends) anywhere under src/
                 except src/support/sync.hpp, which wraps them in the
                 thread-safety-annotated types everything else must use.
                 ``std::thread`` is additionally restricted to the worker-pool
                 internals listed in THREAD_ALLOWLIST.
  engine-contract  Every engine entry point in ENGINE_FILES must poll its
                 cooperative stop flag (``stop->load(...)``) and thread the
                 solve-scoped ``telemetry::Context`` — engines that ignore
                 either break portfolio cancellation or tracing silently.
  bench-meta     Any bench/*.cpp that emits a .json artifact must include
                 bench_meta.hpp so the artifact carries the provenance block
                 (git sha, compiler, flags) the comparison tooling keys on.
  nolint-reason  Every NOLINT / NOLINTNEXTLINE must name the suppressed check
                 and carry a ``: reason`` string — bare suppressions rot.
  counter-relay  The LP kernel-breakdown counters (KERNEL_COUNTER_FIELDS) are
                 named only under src/lp/, where the engines count them and
                 ``lp::LpCounters`` declares them once with its name table.
                 Every other library module (src/<module>/) carries the value
                 whole (``+=``) and emits it by walking
                 ``lp::kLpCounterFields``; a field copied by name is a relay
                 that the next new counter will miss. Programs outside the
                 module tree (perfbench, whose self-test lints its sources
                 as top-level ``src/`` files) are consumers and may read
                 the fields.

Usage:
  scripts/lint_contracts.py [--root DIR]   lint the repository (default: the
                                           script's parent repo)
  scripts/lint_contracts.py --self-test    run the rule engine against the
                                           fixtures in tests/lint_fixtures/

Exit status: 0 clean, 1 violations (or fixture mismatches), 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Callable, List, NamedTuple

# --- repo-specific contract data -------------------------------------------

# Files allowed to spawn std::thread directly: the driver/solver worker pools
# and the progress ticker. Everything else must go through these layers.
THREAD_ALLOWLIST = {
    "src/driver/batch.cpp",
    "src/driver/portfolio.cpp",
    "src/driver/backend_runner.cpp",
    "src/driver/backend_runner.hpp",
    "src/milp/bb_parallel.cpp",
    "src/search/solver.cpp",
}

# The file that is allowed to mention raw standard sync primitives: it wraps
# them in the annotated capability types (rfp::sync) everything else uses.
SYNC_WRAPPER = "src/support/sync.hpp"

# Engine entry points: long-running solve loops that must honor cooperative
# cancellation and emit solve-scoped telemetry.
ENGINE_FILES = [
    "src/baseline/annealer.cpp",
    "src/fp/heuristic.cpp",
    "src/fp/milp_floorplanner.cpp",
    "src/search/solver.cpp",
    "src/milp/bb.cpp",
    "src/milp/bb_parallel.cpp",
]

RAW_SYNC_TOKENS = [
    "std::mutex",
    "std::timed_mutex",
    "std::recursive_mutex",
    "std::shared_mutex",
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
    "std::shared_lock",
    "std::condition_variable",
]

STOP_POLL_RE = re.compile(r"stop\s*(?:->|\.)\s*load\s*\(")
TELEMETRY_RE = re.compile(r"\btelemetry::")
JSON_EMIT_RE = re.compile(r"\.json\"")
BENCH_META_RE = re.compile(r'#\s*include\s*"bench_meta\.hpp"')
# A well-formed suppression: NOLINT or NOLINTNEXTLINE, a non-empty check
# list in parens, then ": <reason>".
NOLINT_OK_RE = re.compile(r"NOLINT(?:NEXTLINE)?\([^)\n]+\)\s*:\s*\S")
NOLINT_ANY_RE = re.compile(r"NOLINT")

# LP counters that only the kernels produce; outside src/lp/ nothing may name
# them, also not as part of a relay field such as `lp_dual_pivots`.
KERNEL_COUNTER_FIELDS = [
    "primal_pivots", "dual_pivots", "bound_flips", "ft_updates",
    "ftran_sparse", "ftran_dense", "btran_sparse", "btran_dense",
    "dse_updates",
]
KERNEL_COUNTER_RE = re.compile(
    r"(?:\b|_)(" + "|".join(KERNEL_COUNTER_FIELDS) + r")\b")

CPP_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}


class Violation(NamedTuple):
    path: str
    line: int
    rule: str
    message: str


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comments, preserving line structure so line
    numbers computed against the stripped text still match the source."""

    def blank(match: re.Match[str]) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.S)
    return re.sub(r"//[^\n]*", blank, text)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# --- rules ------------------------------------------------------------------
# Each rule takes (repo-relative posix path, raw text) and returns violations.


def rule_raw_sync(rel: str, text: str) -> List[Violation]:
    if not rel.startswith("src/") or rel == SYNC_WRAPPER:
        return []
    out: List[Violation] = []
    code = strip_comments(text)
    for token in RAW_SYNC_TOKENS:
        for m in re.finditer(re.escape(token) + r"\b", code):
            out.append(Violation(
                rel, line_of(code, m.start()), "raw-sync",
                f"{token} is banned outside {SYNC_WRAPPER}; use the annotated "
                f"rfp::sync types (Mutex, MutexLock, UniqueLock, CondVar)"))
    if rel not in THREAD_ALLOWLIST:
        for m in re.finditer(r"std::thread\b", code):
            out.append(Violation(
                rel, line_of(code, m.start()), "raw-sync",
                "std::thread is restricted to the pool internals "
                "(driver/batch, driver/portfolio, driver/backend_runner, "
                "milp/bb_parallel, search/solver)"))
    return out


def rule_engine_contract(rel: str, text: str) -> List[Violation]:
    if rel not in ENGINE_FILES:
        return []
    out: List[Violation] = []
    code = strip_comments(text)
    if not STOP_POLL_RE.search(code):
        out.append(Violation(
            rel, 1, "engine-contract",
            "engine never polls its cooperative stop flag (expected "
            "`stop->load(...)`); portfolio cancellation would hang on it"))
    if not TELEMETRY_RE.search(code):
        out.append(Violation(
            rel, 1, "engine-contract",
            "engine does not thread telemetry::Context (spans/counters); "
            "solves through it would be invisible to tracing"))
    return out


def rule_bench_meta(rel: str, text: str) -> List[Violation]:
    if not (rel.startswith("bench/") and rel.endswith(".cpp")):
        return []
    code = strip_comments(text)
    if JSON_EMIT_RE.search(code) and not BENCH_META_RE.search(code):
        return [Violation(
            rel, 1, "bench-meta",
            "bench emits a .json artifact but does not include "
            "bench_meta.hpp; artifacts must carry the provenance block")]
    return []


def rule_nolint_reason(rel: str, text: str) -> List[Violation]:
    out: List[Violation] = []
    for i, line in enumerate(text.splitlines(), start=1):
        if NOLINT_ANY_RE.search(line) and not NOLINT_OK_RE.search(line):
            out.append(Violation(
                rel, i, "nolint-reason",
                "NOLINT must name the check and give a reason: "
                "`NOLINT(check-name): why this is safe`"))
    return out


def rule_counter_relay(rel: str, text: str) -> List[Violation]:
    parts = rel.split("/")
    if len(parts) < 3 or parts[0] != "src" or parts[1] == "lp":
        return []
    code = strip_comments(text)
    return [Violation(
        rel, line_of(code, m.start()), "counter-relay",
        f"`{m.group(1)}` is an LP kernel counter: carry lp::LpCounters whole "
        "(+=) and emit it through lp::kLpCounterFields instead of naming it")
        for m in KERNEL_COUNTER_RE.finditer(code)]


RULES: List[Callable[[str, str], List[Violation]]] = [
    rule_raw_sync,
    rule_engine_contract,
    rule_bench_meta,
    rule_nolint_reason,
    rule_counter_relay,
]


def lint_file(rel: str, text: str) -> List[Violation]:
    out: List[Violation] = []
    for rule in RULES:
        out.extend(rule(rel, text))
    return out


# --- repo walk --------------------------------------------------------------


def lint_repo(root: Path) -> List[Violation]:
    out: List[Violation] = []
    for top in ("src", "tests", "bench"):
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CPP_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if "lint_fixtures" in rel:
                continue  # fixture files deliberately violate the rules
            out.extend(lint_file(rel, path.read_text(encoding="utf-8")))
    # An engine rename must update ENGINE_FILES, not silently drop coverage.
    for rel in ENGINE_FILES:
        if not (root / rel).is_file():
            out.append(Violation(
                rel, 1, "engine-contract",
                "listed engine file is missing; update ENGINE_FILES in "
                "scripts/lint_contracts.py if it moved"))
    return out


# --- self-test --------------------------------------------------------------

FIXTURE_RE = re.compile(
    r"lint-fixture:\s*path=(?P<path>\S+)\s+expect=(?P<expect>\S+)")


def self_test(root: Path) -> int:
    fixtures = sorted((root / "tests" / "lint_fixtures").glob("*.fixture"))
    if not fixtures:
        print("lint_contracts.py: no fixtures found under tests/lint_fixtures/",
              file=sys.stderr)
        return 1
    failures = 0
    for fixture in fixtures:
        text = fixture.read_text(encoding="utf-8")
        m = FIXTURE_RE.search(text)
        if not m:
            print(f"FAIL {fixture.name}: missing `lint-fixture: path=... "
                  f"expect=...` directive")
            failures += 1
            continue
        expect = set() if m.group("expect") == "clean" else \
            set(m.group("expect").split(","))
        # Drop the directive line so it cannot trip any rule itself.
        body = "\n".join(l for l in text.splitlines()
                         if "lint-fixture:" not in l)
        got = {v.rule for v in lint_file(m.group("path"), body)}
        if got == expect:
            print(f"ok   {fixture.name}: {sorted(got) or ['clean']}")
        else:
            print(f"FAIL {fixture.name}: expected {sorted(expect) or ['clean']}"
                  f", got {sorted(got) or ['clean']}")
            failures += 1
    print(f"lint_contracts.py self-test: {len(fixtures) - failures}/"
          f"{len(fixtures)} fixtures passed")
    return 1 if failures else 0


# --- main -------------------------------------------------------------------


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: the script's repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the rule engine against tests/lint_fixtures/")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test(args.root)

    violations = lint_repo(args.root)
    for v in violations:
        print(f"{v.path}:{v.line}: [{v.rule}] {v.message}")
    if violations:
        print(f"lint_contracts.py: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("lint_contracts.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
