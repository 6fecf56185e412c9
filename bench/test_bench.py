"""Self-test of the benchmark on two tiny cases.

Run from the repository root: python3 -m pytest -q bench
"""

import json

import pytest

import run

TINY = [("A1", "1", "2", "verify"), ("A2", "1", "1,1", "cohomology")]


@pytest.fixture(scope="module")
def refs():
    return run.load_references(TINY)


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(trace, refs):
    res = run.benchmark(TINY, seed=0, seconds=0, trace=trace, references=refs)
    assert res["correct"] and (res["attempted"], res["failed"]) == (2, 0)
    named = run.metric_specs(trace)
    assert {m["name"]: m["unit"] for m in named} == {
        k: v["unit"] for k, v in res["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    assert res["provenance"]["backend"] in ("fractions.Fraction", "gmpy2.mpq")


def test_traced_counts_follow_the_pipeline(refs, capsys):
    res = run.benchmark(TINY, seed=0, seconds=0, trace=True, references=refs)
    per_case = {
        rec["case"]: rec["layers"]
        for rec in map(json.loads, (
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith('{"case"')
        ))
    }
    assert per_case["A1_1_2_verify"]["jetcalc.semiholonomic.calls"] > 0
    assert per_case["A2_1_1-1_cohomology"]["jetcalc.semiholonomic.calls"] == 0
    # self times of all spans add up to the time inside the CLI entry
    self_total = sum(
        v for layers in per_case.values() for k, v in layers.items() if k.endswith(".self_s")
    )
    assert self_total == pytest.approx(res["metrics"]["bggcli.main.s"]["value"], rel=1e-6)


def test_corrupted_reference_fails_every_case(refs):
    bad = {case: {**ref, "columns": []} for case, ref in refs.items()}
    res = run.benchmark(TINY, seed=0, seconds=0, trace=False, references=bad)
    assert not res["correct"]
    assert res["failed"] / res["attempted"] == 1


def test_gate_ignores_only_keys_the_reference_lacks():
    ref = {"a": [1, {"b": "pass"}]}
    assert run._agrees(ref, {"a": [1, {"b": "pass", "reason": "x"}], "new": 0})
    assert not run._agrees(ref, {"a": [1, {"b": "fail"}]})
    assert not run._agrees(ref, {"a": [1]})
    assert not run._agrees(ref, {})


def test_seed_only_permutes_the_cases(refs, capsys):
    orders = set()
    for seed in range(6):
        res = run.benchmark(TINY, seed=seed, seconds=0, trace=True, references=refs)
        orders.add(tuple(res["provenance"]["order"]))
    capsys.readouterr()
    assert len(orders) == 2
    assert all(sorted(o) == sorted(map(run.case_id, TINY)) for o in orders)


def test_every_workload_has_its_references():
    for cases in run.WORKLOADS.values():
        assert set(run.load_references(cases)) == set(cases)


def test_refuses_to_run_without_the_package(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-src")
    assert run.main(["--workload", "cohomology", "--seconds", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "no package source" in out.err
