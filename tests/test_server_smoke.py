"""Campaign-server smoke test: boots stacknoc_serve on a temp Unix
socket, drives it with stacknoc_client, and pins the subsystem's three
contracts end to end:

  * a "run" submission streams accepted -> interval* -> result events;
  * resubmitting the identical request is a cache hit served without
    re-simulation, with a byte-identical data payload;
  * the server-side stats digest matches a direct ``stacknoc_run
    --digest`` of the same configuration, and a second job sharing the
    warm configuration restores the warm checkpoint instead of warming
    up again.

Written pytest-style (plain asserts, test_* functions) but with no
pytest dependency: ``python3 tests/test_server_smoke.py SERVE CLIENT
RUN`` runs every test function, which is how ctest invokes it.
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
RUN = os.environ.get("STACKNOC_RUN", "")

BASE = ["--scenario", "MRAM-4TSB-WB", "--seed", "1",
        "--warmup", "500", "--mesh", "8x8"]
JOB = [*BASE, "--apps", "tpcc", "--cycles", "2000"]


class Server:
    """stacknoc_serve on a fresh socket + checkpoint dir."""

    def __init__(self):
        self.dir = tempfile.mkdtemp(prefix="stacknoc_smoke_")
        self.socket = os.path.join(self.dir, "serve.sock")
        self.proc = subprocess.Popen(
            [SERVE, "--socket", self.socket, "--workers", "1",
             "--ckpt-dir", os.path.join(self.dir, "ckpt")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        for _ in range(100):
            if os.path.exists(self.socket):
                break
            if self.proc.poll() is not None:
                raise AssertionError(
                    f"server died: {self.proc.stderr.read()}")
            time.sleep(0.05)
        else:
            raise AssertionError("server socket never appeared")

    def client(self, *args, expect_rc=0):
        proc = subprocess.run([CLIENT, "--socket", self.socket, *args],
                              capture_output=True, text=True,
                              timeout=240)
        assert proc.returncode == expect_rc, \
            (f"client {' '.join(args)} exited {proc.returncode} "
             f"(want {expect_rc}):\n{proc.stdout}\n{proc.stderr}")
        return [json.loads(line) for line in
                proc.stdout.splitlines() if line.strip()]

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


def direct_digest(cycles=2000, *extra):
    proc = subprocess.run([RUN, *BASE, "--app", "tpcc",
                           "--cycles", str(cycles), "--digest", *extra],
                          capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, f"stacknoc_run failed:\n{proc.stderr}"
    m = re.search(r"stats_digest (0x[0-9a-f]{16})", proc.stdout)
    assert m, f"no stats_digest in:\n{proc.stdout}"
    return m.group(1)


def test_server_end_to_end():
    srv = Server()
    try:
        # Cold submission: miss, streamed intervals, fresh result.
        first = srv.client("run", *JOB, "--interval", "500")
        accepted = events_of(first, "accepted")
        assert accepted and accepted[0]["cache"] == "miss", first
        assert len(events_of(first, "interval")) >= 1, \
            f"no interval events streamed: {first}"
        results = events_of(first, "result")
        assert len(results) == 1 and results[0]["cached"] is False
        data = results[0]["data"]
        assert data["warm_saved"] is True
        assert data["warm_restored"] is False

        # Identical resubmission: hit, served from cache, same payload.
        second = srv.client("run", *JOB, "--interval", "500")
        accepted = events_of(second, "accepted")
        assert accepted and accepted[0]["cache"] == "hit", second
        cached = events_of(second, "result")
        assert len(cached) == 1 and cached[0]["cached"] is True
        assert cached[0]["data"] == data, \
            "cached payload differs from the original result"
        assert cached[0]["key"] == results[0]["key"]

        # The cached digest equals a direct stacknoc_run of the same
        # configuration: the cache returns what a re-run would compute.
        assert data["stats_digest"] == direct_digest()

        # A different measured length shares the warm configuration, so
        # it restores the checkpoint saved by the first job — and still
        # matches the direct uninterrupted run bit for bit.
        third = srv.client("run", *BASE, "--apps", "tpcc",
                           "--cycles", "4000")
        warm = events_of(third, "result")[0]["data"]
        assert warm["warm_restored"] is True, warm
        assert warm["restored_from_cycle"] == 500
        assert warm["stats_digest"] == direct_digest(cycles=4000)

        # Bookkeeping made it into status.
        status = events_of(srv.client("status"), "status")[0]
        assert status["completed"] == 2
        assert status["cache_hits"] == 1
        assert status["cache_entries"] == 2

        # A seed past 2^53 travels as its exact text (a JSON number
        # would round) and runs the seed stacknoc_run runs.
        big = ["--seed", "18364758544493064720"]
        res = events_of(srv.client("run", *JOB, *big), "result")
        assert res and res[0]["data"]["stats_digest"] == \
            direct_digest(2000, *big), res
        # The server re-renders the worker's result without rounding it.
        assert res[0]["data"]["seed"] == 18364758544493064720, res

        # Submission-time validation fails fast with exit 1.
        bad = srv.client("run", "--scenario", "NOPE", expect_rc=1)
        assert events_of(bad, "error"), bad
        # An override the scenario cannot honour is refused the same
        # way, before any worker sees it.
        bad = srv.client("run", "--scenario", "MRAM-4TSB-WB",
                         "--regions", "0", expect_rc=1)
        errors = events_of(bad, "error")
        assert errors and "--regions" in errors[0]["reason"], bad
        assert not events_of(bad, "accepted"), bad
    finally:
        srv.shutdown()


def test_server_shutdown_is_clean():
    srv = Server()
    try:
        bye = srv.client("shutdown")
        assert events_of(bye, "bye"), bye
        srv.proc.wait(timeout=30)
        assert srv.proc.returncode == 0
    finally:
        srv.shutdown()


def main():
    global SERVE, CLIENT, RUN
    if len(sys.argv) > 3:
        SERVE, CLIENT, RUN = sys.argv[1], sys.argv[2], sys.argv[3]
    for binary in (SERVE, CLIENT, RUN):
        assert binary and os.path.exists(binary), \
            "pass the stacknoc_serve, stacknoc_client and stacknoc_run paths"
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
