"""Tests of the benchmark itself, at smoke size (about a minute in all).

    python3 -m pytest bench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection; they run only when named.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True,
        cwd=cwd, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_committed_spec_matches_code():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()
    assert json.loads((HERE / "predictions.json").read_text()) == spec.predictions_json()


def test_spec_within_contract_limits():
    b = spec.benchmark_json()
    assert set(b) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert 2 <= len(b["workloads"]) <= 8 and 1 <= len(b["per_layer"]) <= 128
    names = [w["name"] for w in b["workloads"]]
    names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in b["workloads"])
    assert all(UNIT.match(m["unit"]) for m in b["end_to_end"] + b["per_layer"])
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    assert all(0 < v <= 0.25 for v in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    layer_names = {m["name"] for m in b["per_layer"]}
    for row in spec.PREDICTIONS:
        assert set(row["layer"]) <= layer_names
        assert set(row["on"]) <= set(spec.WORKLOADS)


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = result_of(bench("--workload", workload, "--size", "smoke",
                          "--seconds", "1"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {n for n, *_ in spec.END_TO_END}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    runs = [result_of(bench("--workload", workload, "--size", "smoke",
                            "--trace", "1", "--seed", "3"))
            for _ in range(2)]
    units = {name: unit for name, unit, _ in spec.per_layer()}
    for res in runs:
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == set(units)
    counts = [{n: m["value"] for n, m in res["metrics"].items()
               if units[n] == "count"} for res in runs]
    assert counts[0] == counts[1]
    assert counts[0]["rsde.solve_calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "bridge", "--size", "smoke", cwd=tmp_path,
                 script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_reject_perturbed_outputs():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    fp = workloads.make("fixed-point", "smoke")
    ref = json.loads((HERE / "reference.json").read_text())["smoke"]
    its = [SimpleNamespace(w2_update=w, exploitability=0.0,
                           exploitability_err=0.01, domain_member=True)
           for w in ref["fixed-point"]["w2_update"]]
    result = SimpleNamespace(report=SimpleNamespace(iterations=its))
    assert fp.check(result, fp.default_seed) == []
    its[-1].w2_update *= 1.01
    assert fp.check(result, fp.default_seed)
    its[-1].domain_member = False
    assert len(fp.check(result, fp.default_seed + 1)) == 1


@pytest.mark.parametrize("seed", [0, 18])  # all_pass holds at 0, fails at 18
def test_martingale_recheck_reproduces_program_verdict(seed, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.make("rsde-long", "smoke")
    result = wl.call(wl.setup(seed, tmp_path))
    diag = json.loads((result["out"] / "diagnostics.json").read_text())
    m = diag["martingale"]
    assert workloads.martingale_pass(m, m["level"]) == m["all_pass"]
