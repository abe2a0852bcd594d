"""Metrics, actors, and the three-test experiment harness."""

import math

import numpy as np
import pytest

import ggsfc.evaluation as evaluation
from ggsfc.environment import SfcRequest, generate_requests
from ggsfc.evaluation import (
    MetricsReport,
    ReportRow,
    RequestOutcome,
    TEST_RANDOM,
    TEST_RANDOM_VNFS,
    delay_ratio,
    deterioration_rate,
    evaluate_policy,
    evaluate_requests,
    failure_ratio,
    format_report,
    oracle_actor,
    report_to_csv,
    run_experiment,
    save_report,
)
from ggsfc.oracle import label_dataset
from ggsfc.policy import PolicyConfig, init_policy_params, rollout
from ggsfc.topology import Topology, VnfInstance, generate_pool, internet2_fixture
from ggsfc.training import HyperParams, train_sl

from support import fixture_like_graph


def tiny_topology(instances=None):
    if instances is None:
        instances = (
            VnfInstance(1, 0, 7),
            VnfInstance(1, 0, 3),
            VnfInstance(2, 1, 5),
        )
    return Topology(
        num_nodes=4,
        edges=((0, 1, 2), (1, 2, 3), (2, 3, 1), (0, 3, 9)),
        instances=instances,
        vnf_type_count=2,
    )


def ok(generated, oracle):
    return RequestOutcome(success=True, generated_delay=generated, oracle_delay=oracle)


def failed(oracle=None):
    return RequestOutcome(success=False, generated_delay=None, oracle_delay=oracle)


# ---------------------------------------------------------------------------
# metric arithmetic

def test_failure_ratio_counts_failures():
    assert failure_ratio([ok(3, 3), failed(), ok(5, 4)]) == pytest.approx(1 / 3)


def test_failure_ratio_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        failure_ratio([])


def test_delay_ratio_is_sum_over_sum():
    # mean of per-request ratios would be 1.5; the metric divides the totals
    assert delay_ratio([ok(4, 2), ok(3, 3)]) == pytest.approx(7 / 5)


def test_delay_ratio_ignores_failures():
    assert delay_ratio([ok(4, 2), failed(9), ok(3, 3)]) == pytest.approx(7 / 5)


def test_delay_ratio_needs_a_labeled_success():
    with pytest.raises(ValueError, match="no successful"):
        delay_ratio([failed(3), failed()])
    with pytest.raises(ValueError, match="no successful"):
        delay_ratio([RequestOutcome(True, 5, None)])


def test_deterioration_rate():
    assert deterioration_rate(0.2, 0.1) == pytest.approx(2.0)
    assert math.isnan(deterioration_rate(0.3, 0.0))
    with pytest.raises(ValueError, match=">= 0"):
        deterioration_rate(-0.1, 0.5)


# ---------------------------------------------------------------------------
# policies and actors

def rollout_actor(params, cfg):
    """The checkpoint as an actor that walks each request on its own."""
    def act(t, req):
        trace = rollout(params, cfg, t, req, mode="greedy")
        return trace.success, trace.total_delay

    return act


def test_evaluate_policy_matches_per_request_rollouts():
    cfg = PolicyConfig(hidden_dim=8, vnf_type_count=2, t_prop=2)
    t = tiny_topology()
    no_type_1 = tiny_topology(instances=(VnfInstance(1, 0, 7),))
    pairs = [(t, SfcRequest(0, 3, (0,))), (no_type_1, SfcRequest(0, 3, (1,))),
             (t, SfcRequest(3, 0, (0, 1))), (no_type_1, SfcRequest(2, 0, (0,))),
             (t, SfcRequest(1, 2, ()))]
    for seed in range(8):
        params = init_policy_params(cfg, seed=seed)
        got = evaluate_policy(params, cfg, pairs)
        assert got == evaluate_requests(rollout_actor(params, cfg), pairs)
        assert got.infeasible == 1 and len(got.outcomes) == 4
    assert evaluate_policy(params, cfg, []) == evaluate_requests(rollout_actor(params, cfg), [])


def test_oracle_actor_is_exact():
    t = tiny_topology()
    assert oracle_actor()(t, SfcRequest(0, 3, (0,))) == (True, 9)


def test_oracle_actor_reports_infeasible():
    t = tiny_topology(instances=(VnfInstance(1, 0, 7),))  # no type-1 anywhere
    assert oracle_actor()(t, SfcRequest(0, 3, (1,))) == (False, 0)


# ---------------------------------------------------------------------------
# request evaluation

def test_evaluate_requests_excludes_unservable_requests():
    t = tiny_topology(instances=(VnfInstance(1, 0, 7),))
    pairs = [
        (t, SfcRequest(0, 3, (0,))),  # feasible
        (t, SfcRequest(0, 3, (1,))),  # type 1 is not deployed
    ]
    out = evaluate_requests(oracle_actor(), pairs)
    assert out.infeasible == 1
    assert len(out.outcomes) == 1
    assert out.outcomes[0].success


def test_evaluate_requests_with_the_oracle_is_perfect():
    t = internet2_fixture()
    rng = np.random.default_rng(0)
    pairs = [(t, r) for r in generate_requests(t, 25, (1, 3), rng)]
    out = evaluate_requests(oracle_actor(), pairs)
    assert failure_ratio(out.outcomes) == 0.0
    assert delay_ratio(out.outcomes) == pytest.approx(1.0)
    assert all(o.generated_delay == o.oracle_delay for o in out.outcomes)


def test_evaluate_requests_records_oracle_delay_for_failures():
    t = tiny_topology()

    def hopeless(topology, req):
        return False, 0

    out = evaluate_requests(hopeless, [(t, SfcRequest(0, 3, (0,)))])
    assert out.outcomes[0].generated_delay is None
    assert out.outcomes[0].oracle_delay == 9


# ---------------------------------------------------------------------------
# the experiment harness

def small_experiment(seed=4):
    fixture = internet2_fixture()
    pools = {
        "cs1": generate_pool(fixture, "cs1", pool_size=4, seed=31),
        "cs2": generate_pool(fixture, "cs2", pool_size=4, seed=32),
    }
    cfg = PolicyConfig()
    ckpts = [("untrained", init_policy_params(cfg, seed=0), cfg)]
    return run_experiment(
        ckpts, fixture, pools, request_count=12, seed=seed,
        actors=[("exact", oracle_actor())],
    )


def test_run_experiment_requires_both_pools():
    fixture = internet2_fixture()
    pools = {"cs1": generate_pool(fixture, "cs1", pool_size=2, seed=1)}
    with pytest.raises(ValueError, match="cs2"):
        run_experiment([], fixture, pools)


def test_run_experiment_shape_and_reference_row():
    report = small_experiment()
    assert [r.approach for r in report.rows] == ["untrained", "exact"]
    assert report.request_count == 12
    exact = report.rows[1]
    # the solver row is perfect by construction, so its deterioration is undefined
    assert exact.original.failure_ratio == 0.0
    assert exact.original.delay_ratio == pytest.approx(1.0)
    assert math.isnan(exact.deterioration(TEST_RANDOM))
    for m in (exact.original, exact.random, exact.random_vnfs):
        assert 0 <= m.infeasible <= 12


def test_run_experiment_is_deterministic():
    # nan delay ratios defeat dataclass equality, so compare the rendering
    assert report_to_csv(small_experiment()) == report_to_csv(small_experiment())


def test_each_feasible_checkpoint_walk_is_one_rollout_from_the_rows_lockstep(monkeypatch):
    """run_experiment calls rollout once per feasible request of each
    checkpoint row, each call taking its walk from that row's lockstep."""
    calls = []

    def spy(params, cfg, t, req, **kwargs):
        calls.append((id(params), kwargs["lockstep"]))
        return rollout(params, cfg, t, req, **kwargs)

    monkeypatch.setattr(evaluation, "rollout", spy)
    fixture = internet2_fixture()
    pools = {"cs1": generate_pool(fixture, "cs1", pool_size=4, seed=31),
             "cs2": generate_pool(fixture, "cs2", pool_size=4, seed=32)}
    cfg = PolicyConfig()
    ckpts = [(f"m{seed}", init_policy_params(cfg, seed=seed), cfg) for seed in (0, 1)]
    report = run_experiment(ckpts, fixture, pools, request_count=12, seed=4)
    feasible = sum(12 - m.infeasible for m in (report.rows[0].original, report.rows[0].random,
                                                report.rows[0].random_vnfs))
    assert len(calls) == 2 * feasible
    for (_, params, _), row_calls in zip(ckpts, (calls[:feasible], calls[feasible:])):
        assert {p for p, _ in row_calls} == {id(params)}
        assert len({id(lockstep) for _, lockstep in row_calls}) == 1


def test_checkpoint_rows_equal_per_request_rollout_actors_on_mixed_sizes():
    """Pools of 9-node graphs (cs1 adds nodes) beside the 12-node fixture:
    the lockstep rows give the report, CSV byte for byte, that the same
    checkpoints give as actors walking one request at a time.  A briefly
    trained checkpoint fails some requests and solves others; an untrained
    one fails nearly all."""
    fixture = internet2_fixture()
    base = fixture_like_graph(9, 2, seed=5)
    pools = {"cs1": generate_pool(base, "cs1", pool_size=6, seed=33),
             "cs2": generate_pool(base, "cs2", pool_size=6, seed=34)}
    assert {v.num_nodes for v in pools["cs1"].variants} - {9, fixture.num_nodes}
    cfg = PolicyConfig()
    labels = label_dataset(fixture, generate_requests(fixture, 40, (1, 3),
                                                      np.random.default_rng(0)))
    trained, _ = train_sl(init_policy_params(cfg, seed=0), cfg, fixture, labels,
                          HyperParams(alpha_sl=0.03, sl_epochs=6, seed=0))
    ckpts = [("sl", trained, cfg), ("init", init_policy_params(cfg, seed=3), cfg)]
    kwargs = dict(request_count=15, seed=2, chain_len_range=(1, 3))
    lockstep = run_experiment(ckpts, fixture, pools, **kwargs)
    per_request = run_experiment([], fixture, pools, **kwargs, actors=[
        (label, rollout_actor(params, cfg)) for label, params, cfg in ckpts])
    assert report_to_csv(lockstep) == report_to_csv(per_request)


# ---------------------------------------------------------------------------
# report emission

def synthetic_report():
    # qualified names: pytest would otherwise try to collect TestMetrics
    perfect = evaluation.TestMetrics(failure_ratio=0.0, delay_ratio=1.0, infeasible=0)
    rows = (
        ReportRow(
            approach="model",
            original=evaluation.TestMetrics(0.1, 1.25, 0),
            random=evaluation.TestMetrics(0.3, float("nan"), 2),
            random_vnfs=evaluation.TestMetrics(0.45, 1.5, 1),
        ),
        ReportRow(approach="exact", original=perfect, random=perfect,
                  random_vnfs=perfect),
    )
    return MetricsReport(rows=rows, request_count=100, seed=7)


def test_report_row_deterioration_selects_the_test():
    row = synthetic_report().rows[0]
    assert row.deterioration(TEST_RANDOM) == pytest.approx(3.0)
    assert row.deterioration(TEST_RANDOM_VNFS) == pytest.approx(4.5)


def test_report_to_csv_exact_lines():
    lines = report_to_csv(synthetic_report()).splitlines()
    assert lines[0].startswith("approach,original_failure_ratio,")
    assert lines[1] == "model,0.1000,1.2500,0.3000,3.0,-,0.4500,4.5,1.5000,0,2,1"
    assert lines[2] == "exact,0.0000,1.0000,0.0000,undef,1.0000,0.0000,undef,1.0000,0,0,0"


def test_format_report_marks_undefined_deterioration():
    text = format_report(synthetic_report())
    assert "0.3000 (3.0)" in text
    assert "0.0000 (undef)" in text
    assert "requests per test: 100, seed 7" in text


def test_save_report_writes_both_files(tmp_path):
    save_report(synthetic_report(), tmp_path / "out")
    csv = (tmp_path / "out" / "report.csv").read_text()
    txt = (tmp_path / "out" / "report.txt").read_text()
    assert csv == report_to_csv(synthetic_report())
    assert txt == format_report(synthetic_report())
