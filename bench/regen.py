"""Rewrite the benchmark's committed files.

    python3 bench/regen.py spec        # BENCHMARK.json, bench/predictions.json
    python3 bench/regen.py reference   # bench/reference.json, bench/reference/

`reference` runs every workload once per size at its default seed, with
BLAS limited to one thread as in the benchmark, and records the outputs
that the default-seed checks compare against.  Rewriting the reference is
a change to the benchmark, not to the program.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import spec
from run import SINGLE_THREAD

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _dump(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")


def write_spec():
    _dump(ROOT / "BENCHMARK.json", spec.benchmark_json())
    _dump(HERE / "predictions.json", spec.predictions_json())


def write_reference():
    os.environ.update({name: "1" for name in SINGLE_THREAD})
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ref = {}
    for size in ("smoke", "full"):
        ref[size] = {}
        for name in spec.WORKLOADS:
            wl = workloads.make(name, size)
            with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
                result = wl.call(wl.setup(wl.default_seed, tmp))
                failed = wl.check(result, seed=None)
                if failed:
                    raise SystemExit(f"{name} ({size}) fails its invariants: {failed}")
                ref[size][name] = {"seed": wl.default_seed, **wl.reference(result)}
            print(f"{size} {name}: {ref[size][name]}")
    _dump(HERE / "reference.json", ref)


if __name__ == "__main__":
    {"spec": write_spec, "reference": write_reference}[sys.argv[1]]()
