"""Exact solver vs. independent exhaustive search, plus dataset labeling."""

import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsfc.environment import (
    Action,
    RewardConfig,
    SfcRequest,
    generate_requests,
    reset,
    step,
)
from ggsfc import oracle
from ggsfc.oracle import (
    INFEASIBLE,
    brute_force_optimal,
    check_labels,
    delay_bound,
    label_dataset,
    load_dataset,
    load_dataset_file,
    save_dataset,
    solve_optimal,
)
from ggsfc.topology import (
    Topology,
    VnfInstance,
    generate_pool,
    internet2_fixture,
)
from support import (
    FUZZ,
    counted,
    dijkstra_optimal,
    fixture_like_graph,
    graph_requests,
    one_leaf_replaced,
    random_instance,
    small_requests,
    tiny_topology,
)


# ---------------------------------------------------------------------------
# hand-checked cases

def test_optimal_path_on_the_tiny_graph():
    # candidates for 0->3 processing type 0 (only node 1 hosts it):
    #   0-1*-2-3 = 2+3+3+1 = 9,  0-1*-0-3 = 2+3+2+9 = 16; direct 0-3 skips it
    res = solve_optimal(tiny_topology(), SfcRequest(0, 3, (0,)))
    assert res.feasible
    assert res.optimal_delay == 9
    assert res.actions == (Action(1, True), Action(2, False), Action(3, False))
    assert res.path.success


def test_optimal_path_on_the_fixture():
    t = internet2_fixture()
    req = SfcRequest(0, 11, (1, 2))
    res = solve_optimal(t, req)
    bf = brute_force_optimal(t, req)
    assert res.optimal_delay == bf.optimal_delay == 42
    assert res.actions == bf.actions


def test_empty_chain_is_plain_shortest_path():
    t = tiny_topology()
    res = solve_optimal(t, SfcRequest(0, 3, ()))
    # 0-1-2-3 = 6 beats the direct 9ms edge
    assert res.optimal_delay == 6
    assert res.actions == (Action(1, False), Action(2, False), Action(3, False))


def test_empty_chain_at_destination_is_the_empty_walk():
    res = solve_optimal(tiny_topology(), SfcRequest(2, 2, ()))
    assert res.feasible
    assert res.optimal_delay == 0
    assert res.actions == ()


def test_infeasible_when_a_type_is_deployed_nowhere():
    t = Topology(2, ((0, 1, 1),), (VnfInstance(0, 0, 1),), 2)
    res = solve_optimal(t, SfcRequest(0, 1, (1,)))
    assert res == INFEASIBLE
    assert not res.feasible
    with pytest.raises(ValueError, match="no optimal delay"):
        res.optimal_delay


# ---------------------------------------------------------------------------
# tie-breaking (deterministic labels)

def test_equal_delay_ties_prefer_fewer_steps():
    # direct edge 0-3 and two-hop 0-1-3 both cost 2
    t = Topology(4, ((0, 3, 2), (0, 1, 1), (1, 3, 1), (1, 2, 1)), (), 0)
    res = solve_optimal(t, SfcRequest(0, 3, ()))
    assert res.optimal_delay == 2
    assert res.actions == (Action(3, False),)


def test_equal_delay_equal_steps_ties_prefer_smaller_node_sequence():
    # 0-1-3 and 0-2-3 are both 2ms two-hop walks
    t = Topology(4, ((0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)), (), 0)
    res = solve_optimal(t, SfcRequest(0, 3, ()))
    assert res.actions == (Action(1, False), Action(3, False))


def test_processing_site_ties_prefer_the_earlier_node():
    # type 0 available on nodes 1 and 2 at the same cost; both 0-x-3 walks
    # cost 2ms of edges + 4ms of processing
    t = Topology(
        4,
        ((0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)),
        (VnfInstance(1, 0, 4), VnfInstance(2, 0, 4)),
        1,
    )
    res = solve_optimal(t, SfcRequest(0, 3, (0,)))
    assert res.optimal_delay == 6
    assert res.actions == (Action(1, True), Action(3, False))


# ---------------------------------------------------------------------------
# solver vs. exhaustive search

def test_solver_matches_exhaustive_search_on_random_instances():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(60):
        t = random_instance(rng)
        for req in generate_requests(t, 2, (1, 3), rng):
            a = solve_optimal(t, req)
            b = brute_force_optimal(t, req)
            assert a.feasible == b.feasible
            if a.feasible:
                assert a.optimal_delay == b.optimal_delay
                assert a.actions == b.actions
                checked += 1
    assert checked > 80


def test_solver_matches_exhaustive_search_on_chainless_requests():
    rng = np.random.default_rng(29)
    topologies = [internet2_fixture()] + [random_instance(rng) for _ in range(10)]
    for t in topologies:
        for src in range(t.num_nodes):
            for dst in range(t.num_nodes):
                req = SfcRequest(src, dst, ())
                assert solve_optimal(t, req) == brute_force_optimal(t, req)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(small_requests())
def test_solver_matches_exhaustive_search_on_random_small_graphs(case):
    t, req = case
    assert solve_optimal(t, req) == brute_force_optimal(t, req)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(small_requests(nodes=(4, 9), delay=st.sampled_from((1, 2))))
def test_solver_breaks_dense_ties_as_exhaustive_search_does(case):
    # delays of 1 and 2 make many walks tie on delay and on steps, so the
    # tie-break on the action sequence decides most results
    t, req = case
    assert solve_optimal(t, req) == brute_force_optimal(t, req)


# ---------------------------------------------------------------------------
# the A* bound, and the solver vs. plain Dijkstra on graphs too large for
# exhaustive search

@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(small_requests(), graph_requests(nodes=(12, 48))))
def test_the_delay_bound_is_consistent_and_zero_at_the_goal(case):
    t, req = case
    h = delay_bound(t, req)
    if h is None:
        assert any(not any(t.proc_delays[k]) for k in req.chain)
        assert solve_optimal(t, req) == INFEASIBLE
        return
    length = len(req.chain)
    assert h[length][req.destination] == 0
    for layer in range(length + 1):
        procs = t.proc_delays[req.chain[layer]] if layer < length else None
        for u in range(t.num_nodes):
            for v, w in t.arcs[u].items():
                assert h[layer][u] <= w + h[layer][v]
                if procs is not None and procs[v] is not None:
                    assert h[layer][u] <= w + procs[v] + h[layer + 1][v]


def test_a_solve_keeps_only_the_distance_rows_its_bound_reads():
    t = replace(internet2_fixture())  # a fresh copy, holding no rows yet
    assert t._distance_rows == {}
    req = SfcRequest(4, 11, (0, 3, 0))
    assert solve_optimal(t, req).feasible
    # the destination's row, and the rows of type 0's sites 5 and 10 and type 3's 2 and 8
    assert sorted(t._distance_rows) == [2, 5, 8, 10, 11]
    # a chain type with no site is found before any row is read
    t = replace(t, instances=tuple(i for i in t.instances if i.vnf_type != 4))
    assert not solve_optimal(t, SfcRequest(0, 11, (4, 0, 3))).feasible
    assert t._distance_rows == {}


def test_a_first_solve_on_a_large_sparse_graph_stays_small():
    # the rows one solve reads stay a few MiB; 5000 x 5000 delays would take 200 MB
    t = fixture_like_graph(5000, sites_per_type=2, seed=0)
    req = generate_requests(t, 1, (4, 4), np.random.default_rng(0))[0]
    tracemalloc.start()
    try:
        shortest = t.distances_from(req.destination)[req.source]
        result = solve_optimal(t, req)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.feasible and result.optimal_delay >= shortest
    assert peak < 8 * 2**20


@settings(derandomize=True, deadline=None, max_examples=300)
@given(graph_requests())
def test_solver_matches_plain_dijkstra_on_random_graphs(case):
    t, req = case
    assert solve_optimal(t, req) == dijkstra_optimal(t, req)


def test_labels_replay_through_the_environment_exactly():
    t = internet2_fixture()
    rng = np.random.default_rng(23)
    cfg = RewardConfig()
    for req in generate_requests(t, 25, (1, 4), rng):
        res = solve_optimal(t, req)
        s = reset(t, req, max_steps=len(res.actions))
        for a in res.actions:
            s, _, _ = step(s, a, t, cfg)
        assert s.path_so_far.success
        assert s.path_so_far.total_delay == res.optimal_delay


def test_a_feasible_solve_replays_once(monkeypatch):
    # one reset and one step per action: the count a traced label pass checks
    t = internet2_fixture()
    calls = {"reset": 0, "step": 0}
    monkeypatch.setattr(oracle, "reset", counted(calls, "reset", oracle.reset))
    monkeypatch.setattr(oracle, "step", counted(calls, "step", oracle.step))
    res = solve_optimal(t, SfcRequest(0, 11, (1, 2)))
    assert res.feasible and len(res.actions) > 2
    assert calls == {"reset": 1, "step": len(res.actions)}


def test_brute_force_budget_too_small_reports_infeasible():
    t = tiny_topology()
    res = brute_force_optimal(t, SfcRequest(0, 3, (0,)), walk_budget=2)
    assert res == INFEASIBLE


def test_brute_force_work_cap_guards_large_instances():
    t = internet2_fixture()
    with pytest.raises(ValueError, match="cap"):
        brute_force_optimal(t, SfcRequest(0, 11, (1, 2)), walk_budget=10_000,
                            work_cap=1000)


# ---------------------------------------------------------------------------
# labeled datasets

def test_label_dataset_on_a_single_topology():
    t = internet2_fixture()
    reqs = generate_requests(t, 10, (1, 2), np.random.default_rng(1))
    ds = label_dataset(t, reqs)
    assert len(ds) == 10
    assert ds.dropped_infeasible == 0
    for ex in ds.examples:
        assert ex.topology_id == 0
        assert ex.optimal_delay == solve_optimal(t, ex.request).optimal_delay


def test_label_dataset_drops_and_counts_infeasible():
    t = Topology(2, ((0, 1, 1),), (VnfInstance(0, 0, 1),), 2)
    ds = label_dataset(t, [SfcRequest(0, 1, (1,)), SfcRequest(0, 1, (0,))])
    assert len(ds) == 1
    assert ds.dropped_infeasible == 1


def test_label_dataset_maps_ids_to_pool_variants():
    pool = generate_pool(internet2_fixture(), "cs2", pool_size=4, seed=2)
    rng = np.random.default_rng(3)
    pairs = []
    for tid in (0, 2, 3, 1, 2):
        req = generate_requests(pool.variants[tid], 1, (1, 2), rng)[0]
        pairs.append((tid, req))
    ds = label_dataset(pool, pairs)
    assert [ex.topology_id for ex in ds.examples] == [0, 2, 3, 1, 2]
    for ex in ds.examples:
        expect = solve_optimal(pool.variants[ex.topology_id], ex.request)
        assert ex.actions == expect.actions


@pytest.mark.parametrize("tid", [-1, 3])
def test_label_dataset_refuses_a_topology_id_it_cannot_index(tid):
    """-1 would label on the last topology, and 3 would raise a bare
    IndexError; both are refused in check_topology_ids' form."""
    t = internet2_fixture()
    pairs = [(0, SfcRequest(0, 5, (1,))), (tid, SfcRequest(0, 5, (1,)))]
    message = (f"request 1 (topology_id {tid}) is out of range: "
               "expected 0 <= id < 1, the number of topologies given")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        label_dataset([t], pairs)


def test_dataset_round_trip():
    t = internet2_fixture()
    reqs = generate_requests(t, 5, (1, 3), np.random.default_rng(9))
    ds = label_dataset(t, reqs)
    assert load_dataset(save_dataset(ds)) == ds
    assert save_dataset(ds) == save_dataset(ds)


@FUZZ
@given(st.data())
def test_a_fuzzed_dataset_file_loads_or_is_refused_by_name(tmp_path, data):
    t = internet2_fixture()
    doc = json.loads(save_dataset(label_dataset(t, generate_requests(
        t, 4, (1, 3), np.random.default_rng(9)))))
    path = tmp_path / "ds.json"
    path.write_text(data.draw(one_leaf_replaced(doc)))
    try:
        load_dataset_file(path)
    except ValueError as exc:
        assert str(path) in str(exc)


@pytest.mark.parametrize("flag", ['"false"', '"true"', "[0]", "{}", "2", "1.0", "null"])
def test_a_process_flag_other_than_0_or_1_is_refused(flag):
    text = save_dataset(label_dataset(internet2_fixture(), [SfcRequest(0, 5, (1,))]))
    doc = json.loads(text)
    doc["examples"][0]["action_sequence"][0][1] = "<flag>"
    with pytest.raises(ValueError, match="process flag .* is not 0 or 1"):
        load_dataset(json.dumps(doc).replace('"<flag>"', flag))
    doc["examples"][0]["action_sequence"][0][1] = True
    assert load_dataset(json.dumps(doc)).examples[0].actions[0].process


def test_check_labels_refuses_labels_that_do_not_replay():
    t = internet2_fixture()
    ds = label_dataset(t, generate_requests(t, 8, (1, 3), np.random.default_rng(4)))
    check_labels(ds, t, "ds.json")

    def edited(**change):
        examples = list(ds.examples)
        examples[3] = replace(examples[3], **change)
        return replace(ds, examples=tuple(examples))

    delay = ds.examples[3].optimal_delay
    with pytest.raises(ValueError, match=rf"^ds.json: example 3 \(topology_id 0\) replays "
                                         rf"to delay {delay}, not its optimal_delay {delay + 1}$"):
        check_labels(edited(optimal_delay=delay + 1), t, "ds.json")
    with pytest.raises(ValueError, match=r"example 3 \(topology_id 1\) is out of range"):
        check_labels(edited(topology_id=1), t, "ds.json")
    with pytest.raises(ValueError, match="replays to a failed walk"):
        check_labels(edited(actions=ds.examples[3].actions[:-1]), t, "ds.json")
