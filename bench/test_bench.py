"""The benchmark's own tests: tiny smoke runs and planted faults.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402

TINY = {
    "sweep": lambda s: gen.sweep_inputs(s, max_size=4),
    "queries": lambda s: gen.queries_inputs(s, blocks=1),
    "countermodel": lambda s: dict(gen.countermodel_inputs(s, max_size=4,
                                                           light3=5),
                                   heavy3=[]),
    "oneshot": lambda s: gen.oneshot_inputs(s, blocks=1),
}


def write_inputs(tmp_path, workload, seed=3):
    inp = TINY[workload](seed)
    inp["seed"] = seed
    path = tmp_path / ("%s.json" % workload)
    path.write_text(json.dumps(inp))
    return str(path), inp


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_smoke_run(tmp_path, workload):
    path, _ = write_inputs(tmp_path, workload)
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--inputs", path, "--seconds", "0.5", "--workdir", str(tmp_path),
         "--partial"],
        capture_output=True, text=True, timeout=120, check=True)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "ready"
    res = json.loads(lines[-1])
    assert res["correct"], res["wrong"]
    assert res["attempted"] >= 1 and res["ops"] >= 1
    assert res["p50_ms"] > 0


def test_generator_is_seeded():
    for name in TINY:
        assert TINY[name](7) == TINY[name](7)
        assert TINY[name](7) != TINY[name](8)


def test_runner_prints_result_line():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "countermodel", "--seed", "1", "--seconds", "4", "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=ROOT, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout


# ---------------------------------------------------------------------------
# Planted faults: the oracles must turn them into a failed, incorrect run.

def _ctx(tmp_path, workload):
    _, inp = write_inputs(tmp_path, workload)
    return worker.setup(workload, inp, worker.tracing.direct)


def test_flipped_verdict_is_caught(tmp_path, monkeypatch):
    from wmodal import prover, syntax
    ctx = _ctx(tmp_path, "sweep")
    target = syntax.parse("(p1 -> p1)")
    real = prover.prove

    def flipped(logic, seq, *args):
        res = real(logic, seq, *args)
        if logic.name == "K" and seq.suc == (target,):
            return prover.ProofResult(not res.proved, None, res.stats)
        return res
    monkeypatch.setattr(prover, "prove", flipped)
    prover.clear_caches()
    res = worker.run_sweep(ctx, 1.0, worker.tracing.direct)
    prover.clear_caches()
    assert not res["correct"]
    assert res["failed"] >= 1
    assert any(w[0] in ("lattice", "digest") for w in res["wrong"])


def test_refuted_witness_is_caught(tmp_path, monkeypatch):
    from wmodal import semantics
    ctx = _ctx(tmp_path, "countermodel")
    real = semantics.enumerate_countermodel

    def lying(logic, f, worlds):
        hit = real(logic, f, worlds)
        if hit is None:
            return None
        model, world = hit
        good = [w for w in range(model.n) if semantics.forces(model, w, f)]
        return (model, good[0]) if good else hit
    monkeypatch.setattr(semantics, "enumerate_countermodel", lying)
    res = worker.run_countermodel(ctx, 0.5, worker.tracing.direct)
    assert not res["correct"]
    assert any(w[0] == "refuted witness" for w in res["wrong"])


def test_oracle_evaluator_agrees_with_definitions():
    # p1 holds at world 1 only; world 0 sees {1} as its one neighbourhood.
    doc = {"version": 1, "kind": "classical", "worlds": [0, 1],
           "neighbourhoods": {"0": [[1]], "1": []}, "valuation": {"p1": [1]}}
    m = oracle.Model(doc)
    assert m.ext(oracle.read("[]p1")) == 0b01
    assert m.ext(oracle.read("<>p1")) == 0b11
    assert oracle.witness_ok(doc, "M", "([]p1 -> p1)", 0)
    assert not oracle.witness_ok(doc, "MN", "([]p1 -> p1)", 0)   # (N) fails at 1
    assert not oracle.witness_ok(doc, "M", "(p1 -> p1)", 0)


def test_meter_scales_every_operation_and_keeps_failed_time():
    import calib
    m = calib.Meter(every=60)
    m.add(0.01)
    m.add(0.02, False)
    m.flush()
    k = m.scaled[0] / 0.01
    assert list(m.raw) == [0.01, math.inf] and m.scaled[1] == math.inf
    assert m.busy == pytest.approx(0.03)
    assert m.busy_scaled == pytest.approx(0.03 * k)
    assert k == pytest.approx(2 * calib.NOMINAL_S / sum(m.samples))


def test_layer_metrics_match_the_spec():
    import probes
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert spec == dict(probes.UNITS, **{"trace.overhead_ratio": "ratio"})
