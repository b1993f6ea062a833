"""Tests of the benchmark itself, on reduced inputs (a few seconds in all).

The full-size workloads only run through perfbench/run.py; nothing here
starts them.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import refs as R  # noqa: E402
import workloads as W  # noqa: E402

SRC = os.path.join(ROOT, "src")
E2E = [name for name, _, _, _ in bench.END_TO_END]


def small_raw(workload: str, seed: int):
    make_raw, setup_fn = W.WORKLOADS[workload]
    raw = make_raw(seed, True)
    raw.update(root=ROOT, cli_env=W.cli_env(ROOT), cli_seen={})
    return raw, setup_fn


def small_ops(workload: str, seed: int = 5):
    raw, setup_fn = small_raw(workload, seed)
    saved = bench._groupalg_modules()
    ops, _ = bench.setup(setup_fn, raw, SRC)
    return ops, saved


def restore(saved):
    for name in bench._groupalg_modules():
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.mark.parametrize("workload", ["large", "sweep", "codes"])
def test_small_workload_runs_clean_and_reports_every_metric(workload):
    result, detail = bench.run(workload, 3, 0, False, ROOT, small=True)
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(E2E)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result, detail = bench.run("codes", 4, 0, True, ROOT, small=True)
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    names = [name for name, _, _ in bench.PER_LAYER]
    assert sorted(result["metrics"]) == sorted(names)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["dimension.dim_ideal.calls"] > 0 and m["linalg.rank.calls"] > 0
    assert m["gcode.min_distance.s"] > 0 and m["cli.main.s"] > 0 and m["cli.startup_s"] > 0
    assert m["dimension.mulmuley_random.misses"] == 0


def test_untraced_setup_installs_no_wrappers_and_traced_wraps_imported_names():
    raw, setup_fn = small_raw("codes", 1)
    saved = bench._groupalg_modules()
    try:
        bench.setup(setup_fn, raw, SRC)
        dimension = sys.modules["groupalg.dimension"]
        assert not hasattr(dimension.rank, "__wrapped__")
        bench.setup(setup_fn, raw, SRC, with_cli=True, tracer=bench.tracing.Tracer())
        dimension = sys.modules["groupalg.dimension"]
        linalg = sys.modules["groupalg.linalg"]
        assert dimension.rank is linalg.rank and hasattr(dimension.rank, "__wrapped__")
        assert hasattr(linalg.FMatrix.__matmul__, "__wrapped__")
    finally:
        restore(saved)


def _corrupt(op, bad):
    orig = op.fn
    op.fn = lambda: bad(orig())


def test_corrupted_answers_count_as_failed_operations():
    ops, saved = small_ops("sweep")
    try:
        rank_op = next(op for op in ops if op.metric == "rank_gf2_s")
        dist_op = next(op for op in ops if op.metric == "min_distance_s")
        idem_op = next(op for op in ops if op.metric == "idempotent_s" and op.fn() is not None)
        _corrupt(rank_op, lambda d: d + 1)
        _corrupt(dist_op, lambda d: d - 1)
        _corrupt(idem_op, lambda e: e + type(e).one(e.field, e.group))
        chosen = [rank_op, dist_op, idem_op]
        tally = bench.Tally()
        bench.run_round(chosen, tally)
        assert tally.attempted == 3 and tally.failed == 3 and tally.wrong == 3
        clean = bench.Tally()
        bench.run_round([op for op in ops if op not in chosen and op.argv is None], clean)
        assert clean.failed == 0 and clean.attempted > 100
    finally:
        restore(saved)


def test_an_operation_that_raises_is_failed_but_not_wrong():
    ops, saved = small_ops("codes")
    try:
        op = next(op for op in ops if op.metric == "min_distance_s")
        op.fn = lambda: 1 // 0
        tally = bench.Tally()
        bench.run_round([op], tally)
        assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
    finally:
        restore(saved)


def test_reference_tables_match_groupalg_conventions():
    saved = bench._groupalg_modules()
    try:
        ga = bench.fresh_import(SRC, with_cli=False)
        for spec in W.SWEEP_GROUPS["small"] + ["dihedral:12", "product:symmetric:4,cyclic:4"]:
            assert np.array_equal(R.table_for(spec), ga.make_group(spec).mul), spec
        for (p, m), modulus in R.MODULI.items():
            assert ga.make_field(p, m).modulus == modulus
    finally:
        restore(saved)


def test_references_on_known_codes():
    F2 = R.RefField(2)
    hamming = np.array([1, 1, 0, 1, 0, 0, 0])
    assert R.cyclic_dim(F2, hamming) == 4
    basis = R.ideal_basis(F2, R.RefGroup("cyclic:7"), [hamming], "left")
    assert R.min_weight(F2, basis) == 3
    F4 = R.RefField(2, 2)
    assert all(F4.mul(a, F4.inv(a)) == 1 for a in range(1, 4))


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "codes",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and not proc.stdout.strip()
