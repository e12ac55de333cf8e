#!/usr/bin/env python3
"""Throughput-regression sentinel for sweep artifacts.

    perf_sentinel.py --baseline BENCH_throughput.json --fresh FRESH.json

Matches runs by config_digest and compares ticks_per_sec with a
relative tolerance band (--tolerance, default 0.30 = fresh may be up to
30% slower before it counts as a regression; wall-clock noise on shared
CI hosts is real). stats_digest differences are a hard failure at any
tolerance: determinism broke, not perf.

Exit codes: 0 pass, 1 regression, 2 usage or unreadable input.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"perf_sentinel: FAIL: {msg}")
    return False


def load_bench(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_sentinel: cannot read {path}: {e}")
        sys.exit(2)
    runs = {}
    for run in doc.get("runs", []):
        digest = run.get("config_digest")
        if digest and run.get("ok"):
            runs[digest] = run
    return doc, runs


def check_throughput(baseline_path, fresh_path, tolerance):
    base_doc, base = load_bench(baseline_path)
    fresh_doc, fresh = load_bench(fresh_path)
    ok = True
    if base_doc.get("schema_version") != fresh_doc.get("schema_version"):
        ok = fail(f"schema_version mismatch: baseline "
                  f"{base_doc.get('schema_version')} vs fresh "
                  f"{fresh_doc.get('schema_version')}")
    matched = 0
    for digest, b in base.items():
        f = fresh.get(digest)
        if f is None:
            continue
        matched += 1
        if b.get("stats_digest") != f.get("stats_digest"):
            ok = fail(f"{digest}: stats_digest changed "
                      f"({b.get('stats_digest')} -> "
                      f"{f.get('stats_digest')}): determinism broke")
        bt, ft = b.get("ticks_per_sec"), f.get("ticks_per_sec")
        if not bt or not ft:
            continue
        floor = bt * (1.0 - tolerance)
        if ft < floor:
            ok = fail(f"{digest} ({b.get('scenario')}/{b.get('mix')}):"
                      f" ticks/sec {ft:.0f} < {floor:.0f} "
                      f"(baseline {bt:.0f}, tolerance {tolerance:.0%})")
        else:
            print(f"perf_sentinel: {digest}: ticks/sec {ft:.0f} ok "
                  f"(baseline {bt:.0f})")
    if matched == 0:
        ok = fail("no runs matched by config_digest between baseline "
                  "and fresh")
    else:
        print(f"perf_sentinel: matched {matched} run(s) by "
              f"config_digest")
    return ok


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", required=True,
                    help="committed BENCH_throughput.json")
    ap.add_argument("--fresh", required=True,
                    help="freshly recorded bench json")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="relative ticks/sec slowdown allowed "
                         "(default 0.30)")
    args = ap.parse_args()

    if not check_throughput(args.baseline, args.fresh, args.tolerance):
        return 1
    print("perf_sentinel: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
