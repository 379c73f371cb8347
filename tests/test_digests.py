"""The benchmark workloads' outputs at their default seeds, pinned by digest.

Each workload runs once through `bench/worker.py --mode call --size full`,
in a fresh interpreter with the environment `bench/run.py` gives its
workers (PYTHONHASHSEED=0, one BLAS thread, the checkout's src/ first on
PYTHONPATH).  The digest hashes the outputs the workload checks, so a
change that moves any of them by one bit fails here.  The three processes
run concurrently.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS")

# workload: (default seed, digest of its checked outputs)
DIGESTS = {
    "fixed-point": (
        11, "d41f2cf1faf35aa23ac24754b657eb84f05d52343186c2a28eb315fca8bfd290"),
    "bridge": (
        7, "e2c3072ff07d4134330cec0e73bcd5795868a8b760efaafcfcbc44fc1d656c0d"),
    "rsde-long": (
        0, "3280b5b3695f8b7ec9f67bd2cdfcbc10eca00f7b10457311616a3c81c669b312"),
}


@pytest.fixture(scope="module")
def workers(tmp_path_factory):
    """One running worker process per workload, started together."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({name: "1" for name in SINGLE_THREAD})
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    procs = {}
    for name, (seed, _) in DIGESTS.items():
        out = tmp_path_factory.mktemp(name)
        cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
               "--workload", name, "--seed", str(seed), "--size", "full",
               "--mode", "call", "--out", str(out), "--t0", repr(time.monotonic())]
        procs[name] = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                       stdout=subprocess.PIPE,
                                       stderr=subprocess.PIPE)
    yield procs
    for proc in procs.values():
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_default_seed_digest(workers, name):
    stdout, stderr = workers[name].communicate(timeout=300)
    assert workers[name].returncode == 0, stderr
    record = json.loads(stdout.strip().splitlines()[-1])
    assert record["ok"], record.get("error") or record.get("failed_checks")
    assert record["digest"] == DIGESTS[name][1]
