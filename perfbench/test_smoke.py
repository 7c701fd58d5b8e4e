"""Smoke test of the benchmark at toy size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench

Every workload runs once at the toy sizes of ``workloads.TOY`` through
the same code as a full run. The tests check that every metric of
``BENCHMARK.json`` is printed with its unit, that the spans' self times
add up to the traced wall time, and that each gate rejects a wrong
reference value.
"""
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import instances  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
# Summary lines that carry the workload-specific end-to-end figures.
SUMMARY = {
    "canonical-train": ("train_to_gap_s", "iterations_to_gap"),
    "sector-simulate": ("simulate_paths_per_s", "kkt_checked"),
    "sector-references": ("extensive_form_s", "perfect_foresight_s"),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], sizes=workloads.TOY)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if not line.startswith("#")}
    for key in SUMMARY[name]:
        assert printed[key] == run.SUMMARY_UNITS[key]
    assert printed["failure_ratio"] == "ratio"
    assert printed["op_s.median"] == "s"


@pytest.fixture(scope="module", params=NAMES)
def traced(request):
    return workloads.run(request.param, 5, 0.0, True, workloads.TOY)


def test_self_times_add_up_to_the_traced_wall_time(traced):
    tracer = traced["tracer"]
    own = tracer.self_times()
    spans = tracer.spans
    assert tracer.roots and len(spans) > len(tracer.roots)
    assert own.min() >= -1e-9
    ends = tracer.roots[1:] + [len(spans)]
    for root, end in zip(tracer.roots, ends):
        wall = spans[root][2] - spans[root][1]
        assert all(s[3] >= root for s in spans[root + 1:end])
        assert abs(own[root:end].sum() - wall) <= 1e-9 * max(wall, 1.0)


@pytest.fixture(scope="module")
def one_op():
    """Set-up, input and output of one toy operation per workload."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(workloads.TOY)
        state = workload.setup(3)
        inp = workload.draw(state, 3, 0)
        out[name] = (workload, state, inp, workload.op(state, inp))
    return out


def test_training_gate_rejects_a_wrong_tree_optimum(one_op):
    workload, state, inp, out = one_op["canonical-train"]
    assert workload.check(state, inp, out).failures == []
    wrong = dict(state, reference=state["reference"] * (1.0 + 1e-3))
    assert workload.check(wrong, inp, out).failures


def test_training_gate_rejects_a_falling_bound():
    log = [(1, 10.0, 0.0), (2, 9.0, 0.0), (3, 11.0, 0.0)]
    csv = "iteration,seconds,lower_bound,forward_cost\n" + "".join(
        f"{k},0.1,{lb},0.0\n" for k, lb, _ in log)
    outcome = workloads.check_training(log, csv, 11.0, 3)
    assert len(outcome.failures) == 1 and "fell" in outcome.failures[0]


def test_simulation_gate_rejects_a_wrong_lower_bound(one_op):
    workload, state, inp, out = one_op["sector-simulate"]
    assert workload.check(state, inp, out).failures == []
    costs = [tr.total_cost for tr in out[0]]
    spread = max(costs) - min(costs)
    wrong = dict(state, lower_bound=max(costs) + 10.0 * spread + 1.0)
    assert workload.check(wrong, inp, out).failures


def test_reference_gate_rejects_a_wrong_highs_value(one_op):
    workload, state, inp, out = one_op["sector-references"]
    assert workload.check(state, inp, out).failures == []
    ef, pf, seen = out[0].objective, out[1].objective, out[2]
    highs = [workloads.highs_objective(inst) for inst, _ in seen]
    assert workloads.check_references(ef, pf, highs).failures == []
    assert workloads.check_references(
        ef, pf, [highs[0] * (1 + 1e-4), highs[1]]).failures
    assert workloads.check_references(pf, ef, highs[::-1]).failures


def test_canonical_instance_matches_the_test_suite():
    spec = importlib.util.spec_from_file_location(
        "stockpile_tests_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    catalog, scenario, lattice = instances.canonical_instance()
    assert catalog == conftest.canonical_catalog()
    assert scenario == conftest.canonical_scenario()
    theirs = conftest.canonical_lattice()
    assert lattice.n_stages == theirs.n_stages
    for ours_t, theirs_t in zip(lattice.stages, theirs.stages):
        assert len(ours_t) == len(theirs_t)
        for a, b in zip(ours_t, theirs_t):
            for field in ("demand", "heat_demand", "heat_pump_cop"):
                np.testing.assert_array_equal(getattr(a, field),
                                              getattr(b, field))
            assert a.period_hours == b.period_hours
            assert a.capacity_factors.keys() == b.capacity_factors.keys()
            for key in a.capacity_factors:
                np.testing.assert_array_equal(a.capacity_factors[key],
                                              b.capacity_factors[key])


def test_without_sources_the_launcher_exits_nonzero():
    import shutil
    import subprocess

    bare = workloads.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
