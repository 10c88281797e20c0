#!/usr/bin/env python3
"""Summarizes and compares sets of perfbench runs (standard library only).

A set is a directory holding each run's stdout as DIR/<workload>/<name>.out
(see README.md for the loop that makes one). Summarize one set (spread of
each metric against its bound), or compare two sets (medians, quartiles,
verdict against the bound, failed/attempted counts), one row per
workload x metric:

    python3 perfbench/compare.py DIR
    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py --same-build SET_A SET_B

Bounds and directions come from BENCHMARK.json. A spread is the distance
between the first and third quartile as a share of the median. Exits 1
when a spread exceeds its bound (one set), or when the failed share
differs or a median moves past its bound (two sets): in the worse
direction only for BASE/NEW, in either direction with --same-build, where
both sets come from one build and must agree.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_set(directory):
    """{workload: [result dict, ...]} from DIR/<workload>/*.out."""
    runs = {}
    for path in sorted(Path(directory).glob("*/*.out")):
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        runs.setdefault(path.parent.name, []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_specs():
    specs = {m["name"]: m for m in SPEC["end_to_end"]}
    specs.update({m["name"]: dict(m, bound=None) for m in SPEC["per_layer"]})
    return specs


def fmt(v):
    return f"{v:.4g}"


def summarize(runs):
    """Per workload x metric: (q1, median, q3, spread) of one set."""
    table = {}
    for workload, results in sorted(runs.items()):
        names = sorted({n for r in results for n in r["metrics"]})
        for name in names:
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            table[(workload, name)] = (q1, med, q3, spread, len(values))
    return table


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed, attempted


def main(argv):
    same_build = bool(argv) and argv[0] == "--same-build"
    if same_build:
        argv = argv[1:]
    if len(argv) not in (1, 2) or (same_build and len(argv) != 2):
        print(__doc__, file=sys.stderr)
        return 2
    specs = metric_specs()
    sets = [load_set(d) for d in argv]
    summaries = [summarize(s) for s in sets]
    bad = False
    if len(sets) == 1:
        print(f"{'workload':<18} {'metric':<30} {'q1':>11} {'median':>11} "
              f"{'q3':>11} {'spread':>7} {'bound':>6}  n  verdict")
        for (workload, name), (q1, med, q3, spread, n) in sorted(
                summaries[0].items()):
            bound = specs.get(name, {}).get("bound")
            verdict = "-"
            if bound is not None:
                verdict = "ok" if spread <= bound / 3 else "ok (> bound/3)"
                if spread > bound:
                    verdict = "TOO NOISY"
                    bad = True
            print(f"{workload:<18} {name:<30} {fmt(q1):>11} {fmt(med):>11} "
                  f"{fmt(q3):>11} {spread:>7.3f} "
                  f"{'' if bound is None else bound:>6} {n:>2}  {verdict}")
        for workload, results in sorted(sets[0].items()):
            failed, attempted = failed_share(results)
            ok = all(r["correct"] for r in results)
            print(f"{workload}: failed/attempted {failed}/{attempted}, "
                  f"correct in every run: {ok}")
            bad |= not ok
        return 1 if bad else 0

    print(f"{'workload':<18} {'metric':<30} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32} {'change':>8} {'bound':>6}  verdict")
    base, new = summaries
    for key in sorted(set(base) | set(new)):
        workload, name = key
        if key not in base or key not in new:
            print(f"{workload:<18} {name:<30} missing on one side")
            bad = True
            continue
        b, n = base[key], new[key]
        spec = specs.get(name, {})
        change = (n[1] - b[1]) / b[1] if b[1] else float("inf")
        worse = change if spec.get("better") == "lower" else -change
        bound = spec.get("bound")
        if bound is None:
            verdict = "-"
        elif worse > bound:
            verdict = "WORSE"
            bad = True
        elif worse < -bound:
            verdict = "DIFFERS" if same_build else "better"
            bad |= same_build
        else:
            verdict = "within bound"
        triple = lambda t: "/".join(fmt(x) for x in t[:3])
        print(f"{workload:<18} {name:<30} {triple(b):>32} {triple(n):>32} "
              f"{change:>+8.3f} {'' if bound is None else bound:>6}  {verdict}")
    for workload in sorted(set(sets[0]) | set(sets[1])):
        fb, ab = failed_share(sets[0].get(workload, []))
        fn, an = failed_share(sets[1].get(workload, []))
        same = ab and an and fb * an == fn * ab
        print(f"{workload}: failed/attempted base {fb}/{ab}, new {fn}/{an}"
              f"{'' if same else '  FAILED SHARE DIFFERS'}")
        bad |= not same
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
