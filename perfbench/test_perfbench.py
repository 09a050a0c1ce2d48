"""The benchmark's own checks must be able to fail.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q

(Outside the tier-1 suite: ``pyproject.toml`` limits collection to
``tests/``.)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from workloads import (  # noqa: E402
    Verdict,
    _check_series,
    aggregate_counts,
    des_check,
    des_replay,
    des_scenario,
    load_reference,
)


def _figure_from(ref: dict):
    from repro.experiments.figures import FigureData

    fig = FigureData(ref["name"], "x", "y", np.asarray(ref["x"], dtype=float))
    for label, values in ref["series"].items():
        fig.add(label, values)
    return fig


class TestReferenceChecks:
    def test_reference_series_pass_against_themselves(self):
        ref = load_reference("figures")["figure9"]
        v = Verdict(attempted=1)
        _check_series(_figure_from(ref), ref, v)
        assert v.problems == []

    def test_perturbed_reference_value_fails(self):
        ref = load_reference("figures")["figure9"]
        fig = _figure_from(ref)
        bad = json.loads(json.dumps(ref))
        bad["series"]["TAG"][7] *= 1 + 1e-8  # above the 1e-9 tolerance
        v = Verdict(attempted=1)
        _check_series(fig, bad, v)
        assert v.failed == 1
        assert "Figure 9" in v.problems[0] and "'TAG'" in v.problems[0]

    def test_run_with_perturbed_reference_fails(self, tmp_path):
        """A whole repetition (fresh interpreter, as ``run.py`` starts it)
        reports ``correct: false`` when one committed value is off."""
        ref_dir = tmp_path / "reference"
        shutil.copytree(os.path.join(HERE, "reference"), ref_dir)
        path = ref_dir / "structure_scan.json"
        data = json.loads(path.read_text())
        data["points"][4]["values"][0] *= 1 + 1e-8
        path.write_text(json.dumps(data))
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), REPRO_SWEEP_WORKERS="1")
        out = subprocess.run(
            [
                sys.executable, os.path.join(HERE, "rep.py"),
                "--workload", "structure-scan", "--seed", "0",
                "--spawned", repr(time.time()), "--reference", str(ref_dir),
            ],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] is False
        assert result["failed"] == 1
        assert any("reference" in p for p in result["problems"])


class TestReplayChecks:
    @pytest.fixture(scope="class")
    def replay(self):
        trace, make_policy, capacities = des_scenario(5, n_jobs=3000)
        sim_res, serve_res, _, _ = des_replay(trace, make_policy, capacities, 5)
        inputs = {"trace_seed": 5, "scenario": (trace, make_policy, capacities)}
        reference = {"seeds": {"5": aggregate_counts(sim_res, sim_res.job_outcomes())}}
        return inputs, sim_res, serve_res, reference

    def test_identical_replays_pass(self, replay):
        inputs, sim_res, serve_res, reference = replay
        v = des_check(inputs, {"sim": sim_res, "serve": serve_res}, reference)
        assert v.problems == [] and v.failed == 0
        assert v.attempted == 3000

    def test_outcome_mismatch_fails(self, replay):
        inputs, sim_res, serve_res, reference = replay
        job = next(j for j in serve_res.jobs if j.outcome == "completed")
        job.kills += 1
        try:
            v = des_check(inputs, {"sim": sim_res, "serve": serve_res}, reference)
        finally:
            job.kills -= 1
        assert v.failed >= 1
        assert any("differ between sim and serve" in p for p in v.problems)

    def test_aggregate_count_drift_fails(self, replay):
        inputs, sim_res, serve_res, reference = replay
        bad = json.loads(json.dumps(reference))
        bad["seeds"]["5"]["dropped_forward"] += 1
        v = des_check(inputs, {"sim": sim_res, "serve": serve_res}, bad)
        assert v.failed >= 1
        assert any("aggregate counts" in p for p in v.problems)


def test_workload_seed_changes_inputs_reproducibly():
    a, b = workloads.h2_prepare(1), workloads.h2_prepare(2)
    assert not np.array_equal(a["t_grid"], b["t_grid"])
    assert np.array_equal(a["t_grid"], workloads.h2_prepare(1)["t_grid"])
