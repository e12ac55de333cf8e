"""stacknoc_sweep labels every record with the design it actually ran.

Runs a five-scheme tpcc sweep twice — once with stacknoc_run child
processes, once through a throwaway stacknoc_serve — and pins, for both:

  * every record's stats_digest equals a direct
    ``stacknoc_run --scenario X --app tpcc --digest`` of the same point,
    so no scheme silently runs as another design;
  * every record's ``regions`` echoes the scenario's resolved region-TSB
    count (0 for the 64-TSB baselines and BUFF-20).

It also pins that asking for a region count a 64-TSB scheme cannot
honour fails the campaign with exit 2 and a one-line reason.

Written pytest-style (plain asserts, test_* functions) with no pytest
dependency: ``python3 tests/test_sweep_digests.py SWEEP RUN SERVE``
runs every test function, which is how ctest invokes it.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

SWEEP = os.environ.get("STACKNOC_SWEEP", "")
RUN = os.environ.get("STACKNOC_RUN", "")
SERVE = os.environ.get("STACKNOC_SERVE", "")

# Resolved region-TSB count of each scheme (scenario.cc).
REGIONS = {
    "SRAM-64TSB": 0,
    "MRAM-64TSB": 0,
    "MRAM-4TSB": 4,
    "MRAM-4TSB-WB": 4,
    "BUFF-20": 0,
}
CYCLES = ["--cycles", "500", "--warmup", "100"]
SWEEP_ARGS = ["--schemes", ",".join(REGIONS), "--mixes", "tpcc", *CYCLES,
              "--jobs", "2"]


def direct_digest(scenario):
    proc = subprocess.run([RUN, "--scenario", scenario, "--app", "tpcc",
                           *CYCLES, "--digest"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, f"stacknoc_run failed:\n{proc.stderr}"
    m = re.search(r"stats_digest (0x[0-9a-f]{16})", proc.stdout)
    assert m, f"no stats_digest in:\n{proc.stdout}"
    return m.group(1)


def sweep(workdir, *extra):
    out = os.path.join(workdir, "sweep.json")
    proc = subprocess.run([SWEEP, *SWEEP_ARGS, "--out", out, *extra],
                          capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, \
        f"sweep exited {proc.returncode}:\n{proc.stderr}"
    with open(out) as f:
        return json.load(f)["runs"]


def check_records(runs, direct):
    assert sorted(r["scenario"] for r in runs) == sorted(REGIONS), runs
    for r in runs:
        name = r["scenario"]
        assert r["ok"], r
        assert r["stats_digest"] == direct[name], \
            (f"{name}: sweep ran {r['stats_digest']}, direct "
             f"stacknoc_run gives {direct[name]}")
        assert r["regions"] == REGIONS[name], \
            f"{name}: record says regions={r['regions']}"


def test_sweep_records_match_direct_runs():
    direct = {name: direct_digest(name) for name in REGIONS}
    workdir = tempfile.mkdtemp(prefix="stacknoc_sweep_")
    serve = None
    try:
        check_records(sweep(workdir), direct)

        sock = os.path.join(workdir, "serve.sock")
        serve = subprocess.Popen(
            [SERVE, "--socket", sock, "--workers", "2",
             "--ckpt-dir", os.path.join(workdir, "ckpt")],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for _ in range(100):
            if os.path.exists(sock):
                break
            assert serve.poll() is None, "stacknoc_serve died"
            time.sleep(0.05)
        check_records(sweep(workdir, "--server", sock), direct)
    finally:
        if serve is not None:
            serve.terminate()
            serve.wait(timeout=60)
        shutil.rmtree(workdir, ignore_errors=True)


def test_unhonourable_regions_exit_2():
    workdir = tempfile.mkdtemp(prefix="stacknoc_sweep_")
    try:
        out = os.path.join(workdir, "sweep.json")
        proc = subprocess.run(
            [SWEEP, "--schemes", "MRAM-4TSB,MRAM-64TSB", "--regions", "8",
             "--mixes", "tpcc", *CYCLES, "--out", out],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, \
            f"want exit 2, got {proc.returncode}:\n{proc.stderr}"
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "--regions" in lines[0], proc.stderr
        assert not os.path.exists(out), "nothing may run"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    global SWEEP, RUN, SERVE
    if len(sys.argv) > 3:
        SWEEP, RUN, SERVE = sys.argv[1], sys.argv[2], sys.argv[3]
    for binary in (SWEEP, RUN, SERVE):
        assert binary and os.path.exists(binary), \
            "pass the stacknoc_sweep, stacknoc_run and stacknoc_serve paths"
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as e:
                failures += 1
                print(f"FAIL {name}: {e}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
