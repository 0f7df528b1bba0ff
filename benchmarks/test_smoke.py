"""Smoke test of the benchmark itself, on a tiny budget.

    python -m pytest benchmarks/test_smoke.py -q

Runs every workload for one block in both modes and checks the result
shape against BENCHMARK.json, that inputs depend on the seed alone, that a
corrupted library output is counted as a failure, and that a run leaves
no wrapper and no raised int-str cap behind.
"""

import dataclasses
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from seqcode import codec, witness  # noqa: E402
from seqcode.models import checker  # noqa: E402
from seqcode.models.polynat import PolyNat  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(name, trace=0):
    return harness.run(name, seed=3, seconds=0, trace=trace, root=ROOT)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(name, trace, kind):
    result, lines = _run(name, trace)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    assert workloads.generate(name, 5) == workloads.generate(name, 5)
    assert workloads.generate(name, 5) != workloads.generate(name, 6)
    assert workloads.size_probe(5) == workloads.size_probe(5)


def _corrupt_build(monkeypatch):
    real = codec.seq_build
    monkeypatch.setattr(codec, "seq_build", lambda xs: codec.SeqHandle(len(xs), real(xs).w + 1))


def _corrupt_read(monkeypatch):
    real = codec.seq_decode
    monkeypatch.setattr(codec, "seq_decode", lambda h: [x + 1 for x in real(h)])


def _corrupt_audit(monkeypatch):
    # tampered recode witnesses are now reported valid
    monkeypatch.setattr(witness.RecodeWitness, "verify", lambda self: True)


def _corrupt_axioms(monkeypatch):
    real = checker.run_axiom

    def run_axiom(model, ax, budget=checker.SampleBudget()):
        report = real(model, ax, budget)
        return dataclasses.replace(report, verdict="counterexample") if ax.id == "A1" else report

    monkeypatch.setattr(checker, "run_axiom", run_axiom)


@pytest.mark.parametrize("name,corrupt", [
    ("build", _corrupt_build),
    ("read", _corrupt_read),
    ("audit", _corrupt_audit),
    ("axioms", _corrupt_axioms),
])
def test_corrupted_output_counts_in_error_rate(name, corrupt, monkeypatch):
    corrupt(monkeypatch)
    result, lines = _run(name)
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    assert any(line.startswith("FAILED") for line in lines)


def test_traced_run_restores_originals_and_int_str_cap():
    originals = (codec.isqrt, codec.recode_extend, witness.recode_extend,
                 witness.RecodeWitness.verify, checker.run_axiom, PolyNat.__lt__)
    cap = sys.get_int_max_str_digits()
    result, _ = _run("audit", trace=1)
    assert result["metrics"]["decimal.int_max_str_digits_drift"]["value"] > 0
    assert sys.get_int_max_str_digits() == cap
    assert (codec.isqrt, codec.recode_extend, witness.recode_extend,
            witness.RecodeWitness.verify, checker.run_axiom, PolyNat.__lt__) == originals
