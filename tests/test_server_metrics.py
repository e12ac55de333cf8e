"""Server-counter test: boots stacknoc_serve, drives a small campaign,
and pins the ``status`` event's counters end to end:

  * job, cache and checkpoint counters agree with the campaign just
    run, and never decrease between polls;
  * --ckpt-cap-bytes evicts least-recently-used checkpoints, counted in
    ckpt_evictions;
  * ``stacknoc_client status --watch`` prints one summary line per poll
    and any error event exits the client non-zero.

Same conventions as test_server_smoke.py: pytest-style, no pytest
dependency; ctest invokes ``python3 tests/test_server_metrics.py SERVE
CLIENT``.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

SERVE = os.environ.get("STACKNOC_SERVE", "")
CLIENT = os.environ.get("STACKNOC_CLIENT", "")

BASE = ["--scenario", "MRAM-4TSB-WB", "--seed", "1",
        "--warmup", "500", "--mesh", "8x8", "--apps", "tpcc"]
JOB = [*BASE, "--cycles", "2000"]


class Server:
    """stacknoc_serve with a checkpoint dir and an optional LRU cap."""

    def __init__(self, ckpt_cap=0, workers=1):
        self.dir = tempfile.mkdtemp(prefix="stacknoc_obs_")
        self.socket = os.path.join(self.dir, "serve.sock")
        argv = [SERVE, "--socket", self.socket,
                "--workers", str(workers),
                "--ckpt-dir", os.path.join(self.dir, "ckpt")]
        if ckpt_cap:
            argv += ["--ckpt-cap-bytes", str(ckpt_cap)]
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        deadline = time.time() + 10
        while not os.path.exists(self.socket):
            if self.proc.poll() is not None:
                raise AssertionError(
                    f"server died: {self.proc.stderr.read()}")
            if time.time() > deadline:
                raise AssertionError("server never came up")
            time.sleep(0.05)

    def client(self, *args, expect_rc=0):
        proc = subprocess.run([CLIENT, "--socket", self.socket, *args],
                              capture_output=True, text=True,
                              timeout=240)
        assert proc.returncode == expect_rc, \
            (f"client {' '.join(args)} exited {proc.returncode} "
             f"(want {expect_rc}):\n{proc.stdout}\n{proc.stderr}")
        return [json.loads(line) for line in
                proc.stdout.splitlines() if line.strip()]

    def status(self):
        return events_of(self.client("status"), "status")[0]

    def shutdown(self):
        try:
            if self.proc.poll() is None:
                self.client("shutdown")
                self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            shutil.rmtree(self.dir, ignore_errors=True)


def events_of(events, kind):
    return [e for e in events if e.get("event") == kind]


def test_status_counters_campaign():
    """3-job campaign: status counters agree and never decrease."""
    srv = Server()
    try:
        st0 = srv.status()
        assert st0["jobs_submitted"] == 0

        srv.client("run", *JOB)                          # miss
        srv.client("run", *JOB)                          # hit
        srv.client("run", *BASE, "--cycles", "4000")     # miss + restore

        st = srv.status()
        assert st["jobs_submitted"] == 3
        assert st["completed"] == 2
        assert st["cache_hits"] == 1
        assert st["jobs_submitted"] - st["cache_hits"] == 2  # misses
        assert st["jobs_failed"] == 0
        assert st["ckpt_cold_warms"] == 1
        assert st["ckpt_restores"] == 1
        assert st["ckpt_saves"] == 1
        assert st["cache_entries"] == 2
        assert st["ckpt_files"] == 1
        assert st["ckpt_bytes"] > 0
        assert st["uptime_sec"] > 0
        assert st["version"] == "1.2"
        assert st["worker_respawns"] == 0

        # Counters never decrease between polls.
        for key, v0 in st0.items():
            if isinstance(v0, int) and not isinstance(v0, bool) and \
                    key not in ("busy", "queued"):
                assert st[key] >= v0, key
    finally:
        srv.shutdown()


def test_ckpt_eviction():
    # Measure one checkpoint's size, then cap below 2x so a second warm
    # key evicts the first (LRU) while the newest survives.
    srv = Server()
    try:
        srv.client("run", *JOB)
        one = srv.status()["ckpt_bytes"]
        assert one > 0
    finally:
        srv.shutdown()

    srv = Server(ckpt_cap=int(one * 1.5))
    try:
        srv.client("run", *JOB)
        srv.client("run", *JOB, "--seed", "2")  # different warm key
        st = srv.status()
        assert st["ckpt_evictions"] == 1, st
        assert st["ckpt_files"] == 1
        assert st["ckpt_bytes"] <= one * 1.5
    finally:
        srv.shutdown()


def test_client_watch_and_error_exit():
    srv = Server()
    try:
        # status --watch prints one summary line per poll.
        proc = subprocess.Popen(
            [CLIENT, "--socket", srv.socket, "status",
             "--watch", "0.1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.kill()
        proc.wait()
        for line in lines:
            assert re.search(r"up \d+\.\ds v1\.2 \| workers 1", line), \
                lines

        # Any error event exits non-zero (audited in
        # tools/stacknoc_client.cpp: the event loop returns 1 on
        # kind == "error" for every subcommand).
        bad = srv.client("run", "--fault-spec", "not-a-spec",
                         expect_rc=1)
        assert events_of(bad, "error"), bad
    finally:
        srv.shutdown()


def main():
    global SERVE, CLIENT
    if len(sys.argv) > 2:
        SERVE, CLIENT = sys.argv[1], sys.argv[2]
    for binary in (SERVE, CLIENT):
        assert binary and os.path.exists(binary), \
            "pass the stacknoc_serve and stacknoc_client paths"
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
