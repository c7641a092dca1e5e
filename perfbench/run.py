#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark (see perfbench/README.md).

One run (the last stdout line is the result JSON):
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Steadiness report (k runs on seeds N..N+k-1, or k runs of one seed with
--same-seed): median, quartiles and relative spread of every metric, next to
each run's exact work counts:
  python3 perfbench/run.py --workload W --repeat K [--seed N] [--same-seed]

The benchmark's own tests:
  python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench-<digest of this directory's
path> (default root .bench_build, relative to the current directory), so two
checkouts sharing one build root never build each other's sources; CMake's
configure step runs on every invocation, so the provenance it records stays
current. Every run's pass-0 work counts are kept there per (workload, seed,
binary); a later run of the same seed with the same binary that did
different work fails loudly, because its work would depend on the wall clock.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
COUNT_KEYS = ["search.nodes", "milp.nodes", "lp.iterations", "driver.engine_runs",
              "driver.seeded"]


def build_dir() -> Path:
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    return root / ("perfbench-" + hashlib.sha256(str(HERE).encode()).hexdigest()[:8])


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target: str) -> Path:
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    log(f"building {target} in {out}")
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release", *gen],
                   check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", target, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return out / target


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles (statistics.quantiles, n=4) and the interquartile
    range as a share of the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def check_counts(store: Path, key: str, binary: str, counts: Dict[str, int]) -> Optional[str]:
    """Records `counts` for `key`, or returns a message when an earlier run
    of the same binary recorded different ones."""
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{key}.json"
    if path.exists():
        old = json.loads(path.read_text())
        if old.get("binary") == binary and old.get("counts") != counts:
            return f"{key}: this run did {counts} but an earlier run did {old['counts']}"
        if old.get("binary") == binary:
            return None
    path.write_text(json.dumps({"binary": binary, "counts": counts}))
    return None


def run_once(binary: Path, workload: str, seed: int, seconds: float, trace: int):
    """Returns (exit code, result line or None, pass-0 counts)."""
    out = build_dir() / "runs"
    out.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([str(binary), "run", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace),
                           "--data", str(HERE / "data"), "--out", str(out)],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = lines[-1] if lines and lines[-1].startswith("{") else None
    counts: Dict[str, int] = {}
    detail = out / f"run-{workload}-{seed}-{trace}.json"
    if result is not None and detail.exists():
        passes = json.loads(detail.read_text())["passes"]
        counts = {k: passes[0][k] for k in COUNT_KEYS}
    return proc.returncode, result, counts


def guarded_run(binary: Path, workload: str, seed: int, seconds: float, trace: int):
    code, result, counts = run_once(binary, workload, seed, seconds, trace)
    if result is None:
        return code or 1, None, counts
    clash = check_counts(build_dir() / "counts", f"{workload}-{seed}", file_digest(binary), counts)
    if clash:
        log("NONDETERMINISTIC WORK across runs of one seed: " + clash)
        return 1, None, counts
    return code, result, counts


def report(binary: Path, args) -> int:
    seeds = [args.seed] * args.repeat if args.same_seed else \
        [args.seed + i for i in range(args.repeat)]
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    status = 0
    print(f"{'seed':>6} " + " ".join(f"{k:>18}" for k in COUNT_KEYS))
    for seed in seeds:
        code, result, counts = guarded_run(binary, args.workload, seed, args.seconds, args.trace)
        if result is None or code != 0:
            log(f"seed {seed}: run failed (exit {code})")
            status = 1
            if result is None:
                continue
        print(f"{seed:>6} " + " ".join(f"{counts.get(k, 0):>18}" for k in COUNT_KEYS), flush=True)
        for name, m in json.loads(result)["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"\n{'metric':<32} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    summary = {}
    for name, vals in values.items():
        s = spread(vals)
        summary[name] = {**s, "unit": units[name], "values": vals}
        print(f"{name:<32} {units[name]:<6} {s['median']:>12.6g} {s['q1']:>12.6g} "
              f"{s['q3']:>12.6g} {s['spread']:>8.2%}")
    (build_dir() / f"report-{args.workload}.json").write_text(json.dumps(summary, indent=1))
    return status


def self_test() -> int:
    tests = build("perfbench_tests")
    code = subprocess.run([str(tests)]).returncode
    return code or subprocess.run([sys.executable, str(HERE / "tests" / "test_run.py")]).returncode


def main(argv: List[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--same-seed", action="store_true")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            p.error("--workload is required")
        binary = build("perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    if args.repeat > 0:
        return report(binary, args)
    code, result, _ = guarded_run(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is not None:
        print(result, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
