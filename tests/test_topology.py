"""Topology model, change strategies, pools."""

import hashlib
import json
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsfc.topology import (
    EDGE_DELAY_RANGE,
    B,
    Topology,
    TopologyError,
    VnfInstance,
    adjacency_matrix,
    generate_pool,
    internet2_fixture,
    load_pool,
    load_topology,
    load_topology_file,
    mutate_cs1,
    mutate_cs1_stats,
    mutate_cs2,
    relocate_instances,
    save_pool,
    save_topology,
    topology_sha256,
)
from support import (
    FIXTURE_SEED,
    FUZZ,
    deploy_vnfs,
    generate_fixture_topology,
    one_leaf_replaced,
    small_requests,
    tiny_topology,
)


# ---------------------------------------------------------------------------
# construction and validation

def test_edges_are_canonicalized_and_sorted():
    t = Topology(3, ((2, 1, 5), (1, 0, 4)), (), 0)
    assert t.edges == ((0, 1, 4), (1, 2, 5))


def test_instances_are_sorted():
    t = tiny_topology()
    assert t.instances == tuple(sorted(t.instances))


def test_equal_topologies_compare_equal_regardless_of_input_order():
    a = Topology(3, ((0, 1, 1), (1, 2, 2)), (VnfInstance(0, 0, 1),), 1)
    b = Topology(3, ((2, 1, 2), (1, 0, 1)), (VnfInstance(0, 0, 1),), 1)
    assert a == b
    assert topology_sha256(a) == topology_sha256(b)


@pytest.mark.parametrize(
    "edges, message",
    [
        (((0, 0, 1),), "self-loop"),
        (((0, 3, 1), (0, 1, 1), (1, 2, 1)), "out of range"),
        (((0, 1, 1), (1, 0, 2), (1, 2, 1)), "duplicate"),
        (((0, 1, 0), (1, 2, 1)), "not positive"),
        (((0, 1, -3), (1, 2, 1)), "not positive"),
    ],
)
def test_bad_edges_are_rejected(edges, message):
    with pytest.raises(TopologyError, match=message):
        Topology(3, edges, (), 0)


def test_disconnected_graph_is_rejected_naming_a_node():
    with pytest.raises(TopologyError, match="node 2 unreachable"):
        Topology(4, ((0, 1, 1), (2, 3, 1)), (), 0)


def test_too_few_edges_are_refused_naming_the_edge_count():
    with pytest.raises(TopologyError, match=r"^graph is disconnected: node 1 unreachable from "
                                            r"node 0 \(1 edges cannot connect 4 nodes\)$"):
        Topology(4, ((2, 3, 1),), (), 0)


def test_an_edgeless_huge_node_count_is_refused_without_a_per_node_allocation():
    # one list per declared node would peak near 2.5 MB here, far above 64 KiB
    text = json.dumps({"nodes": 10**4, "vnf_type_count": 0, "edges": [], "instances": []})
    tracemalloc.start()
    try:
        with pytest.raises(TopologyError, match="disconnected"):
            load_topology(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_single_node_graph_is_connected():
    t = Topology(1, (), (), 0)
    assert [dict(nb) for nb in t.arcs] == [{}]


@pytest.mark.parametrize(
    "instance, message",
    [
        (VnfInstance(5, 0, 1), "node does not exist"),
        (VnfInstance(0, 2, 1), "outside"),
        (VnfInstance(0, 0, 0), "not positive"),
    ],
)
def test_bad_instances_are_rejected(instance, message):
    with pytest.raises(TopologyError, match=message):
        Topology(2, ((0, 1, 1),), (instance,), 2)


# ---------------------------------------------------------------------------
# lookup tables

def test_neighbors_are_sorted_per_node():
    t = tiny_topology()
    assert [list(nb.items()) for nb in t.arcs] == [
        [(1, 2), (3, 9)], [(0, 2), (2, 3)], [(1, 3), (3, 1)], [(0, 9), (2, 1)]]


def test_arcs_are_read_only():
    t = tiny_topology()
    for v in (1, 2):
        with pytest.raises(TypeError):
            t.arcs[0][v] = 1
    assert t.arcs[0] == {1: 2, 3: 9}


def test_edge_delay_is_symmetric():
    t = tiny_topology()
    assert t.edge_delay(0, 1) == t.edge_delay(1, 0) == 2
    assert t.edge_delay(3, 0) == 9
    for u, v in ((0, 2), (0, 0), (-1, 0), (4, 0), (0, 4)):
        with pytest.raises(TopologyError, match="does not exist"):
            t.edge_delay(u, v)


def test_proc_delays_keep_the_cheaper_instance():
    t = tiny_topology()
    assert t.proc_delays == ((None, 3, None, None), (None, None, 5, None))


def test_deployed_types():
    t = tiny_topology()
    assert t.deployed_types == (0, 1)


@pytest.mark.parametrize("source", ["fixture", "cs1", "cs2"])
def test_solver_tables_match_their_source_data(source):
    fixture = internet2_fixture()
    topologies = ([fixture] if source == "fixture"
                  else generate_pool(fixture, source, pool_size=8, seed=5).variants)
    for t in topologies:
        assert len(t.arcs) == t.num_nodes
        for nb in t.arcs:
            assert list(nb) == sorted(set(nb))
        arcs = {(u, v, d) for u, nb in enumerate(t.arcs) for v, d in nb.items()}
        assert arcs == {(u, v, d) for u, v, d in t.edges} | {(v, u, d) for u, v, d in t.edges}
        cheapest: dict[tuple[int, int], int] = {}
        for i in t.instances:
            site = (i.vnf_type, i.node)
            cheapest[site] = min(cheapest.get(site, i.proc_delay), i.proc_delay)
        assert t.proc_delays == tuple(tuple(cheapest.get((k, node)) for node in range(t.num_nodes))
                                      for k in range(t.vnf_type_count))


@settings(derandomize=True)
@given(small_requests(nodes=(1, 9)))
def test_distances_are_the_shortest_edge_delays(case):
    t, _ = case
    # Bellman-Ford from every node over both directions of every edge, on
    # (delay, steps) pairs, starting from the one-step walks: the least walk
    # of at least one step, a way out and back on the diagonal
    arcs = [(a, b, d) for u, v, d in t.edges for a, b in ((u, v), (v, u))]
    least = [[None] * t.num_nodes for _ in range(t.num_nodes)]
    for a, b, d in arcs:
        least[a][b] = (d, 1)
    for _ in range(t.num_nodes):
        for a, b, d in arcs:
            for row in least:
                if row[a] is not None:
                    walk = (row[a][0] + d, row[a][1] + 1)
                    if row[b] is None or walk < row[b]:
                        row[b] = walk
    assert [[None if c is None else (c // B, c % B) for c in t.least_walks_from(u)]
            for u in range(t.num_nodes)] == least


def test_distances_stay_exact_past_64_bit_delays():
    t = Topology(3, ((0, 1, 2**70), (1, 2, 1), (0, 2, 2**70 + 5)), (), 0)
    assert [t.least_walks_from(u) for u in range(3)] == [
        (2**71 * B + 2, 2**70 * B + 1, (2**70 + 1) * B + 2),
        (2**70 * B + 1, 2 * B + 2, B + 1),
        ((2**70 + 1) * B + 2, B + 1, 2 * B + 2)]


def test_adjacency_matrix_is_symmetric_binary_zero_diagonal():
    t = tiny_topology()
    a = adjacency_matrix(t)
    assert a.shape == (4, 4)
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert a.sum() == 2 * len(t.edges)
    assert a[0, 1] == 1.0 and a[0, 2] == 0.0


def test_adjacency_matrix_is_built_once_and_read_only():
    t = tiny_topology()
    a = adjacency_matrix(t)
    assert adjacency_matrix(t) is a
    with pytest.raises(ValueError, match="read-only"):
        a[0, 2] = 1.0


# ---------------------------------------------------------------------------
# serialization

def test_round_trip_through_json():
    t = tiny_topology()
    assert load_topology(save_topology(t)) == t


def test_save_is_deterministic():
    t = tiny_topology()
    assert save_topology(t) == save_topology(tiny_topology())


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"nodes": 2}',
        '{"nodes": 2, "vnf_type_count": 0, "edges": [[0]], "instances": []}',
        '{"nodes": 1e400, "vnf_type_count": 0, "edges": [], "instances": []}',
    ],
)
def test_malformed_documents_are_rejected(text):
    with pytest.raises(TopologyError, match="malformed"):
        load_topology(text)


# ---------------------------------------------------------------------------
# fixture

def test_fixture_shape():
    t = internet2_fixture()
    assert t.num_nodes == 12
    assert len(t.edges) == 15
    assert t.vnf_type_count == 5
    assert len(t.instances) == 10
    lo, hi = EDGE_DELAY_RANGE
    assert all(lo <= d <= hi for _, _, d in t.edges)
    # two instances per type, each pair on distinct nodes
    for k in range(5):
        nodes = [i.node for i in t.instances if i.vnf_type == k]
        assert len(nodes) == 2 and len(set(nodes)) == 2


def test_fixture_file_matches_its_generator():
    # the bundled data file is frozen output of the seeded generator
    assert generate_fixture_topology(FIXTURE_SEED) == internet2_fixture()


def test_instance_records_keep_their_order_text_and_pool_variants():
    t = internet2_fixture()
    assert [(i.node, i.vnf_type, i.proc_delay) for i in t.instances] == [
        (0, 1, 4), (0, 4, 3), (2, 2, 5), (2, 3, 9), (3, 1, 10),
        (5, 0, 9), (7, 2, 9), (7, 4, 8), (8, 3, 8), (10, 0, 10)]
    assert all(type(i) is VnfInstance for i in t.instances)
    assert save_topology(t) == (
        resources.files("ggsfc.data").joinpath("internet2.json").read_text())
    assert repr(t.instances[0]) == "VnfInstance(node=0, vnf_type=1, proc_delay=4)"
    assert sorted([VnfInstance(1, 0, 3), VnfInstance(0, 2, 9), VnfInstance(1, 0, 2)]) == [
        VnfInstance(0, 2, 9), VnfInstance(1, 0, 2), VnfInstance(1, 0, 3)]
    # the sha256 of these variants' files as written with the record's first,
    # dataclass form
    pool = generate_pool(t, "cs2", pool_size=20, seed=3)
    text = "".join(save_topology(v) for v in pool.variants)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6d086d7f050c9a6407bf8b5434a9d1d6f9d97ad2a1a51aa29931e31a2a7a667e")


def test_fixture_generator_is_deterministic():
    assert generate_fixture_topology(3) == generate_fixture_topology(3)
    assert generate_fixture_topology(3) != generate_fixture_topology(4)


# ---------------------------------------------------------------------------
# deploy_vnfs

def test_deploy_vnfs_places_each_type_on_distinct_nodes():
    rng = np.random.default_rng(0)
    base = Topology(6, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)), (), 3)
    t = deploy_vnfs(base, per_type_count=2, proc_delay_range=(2, 4), rng=rng)
    assert len(t.instances) == 6
    for k in range(3):
        nodes = [i.node for i in t.instances if i.vnf_type == k]
        assert len(nodes) == 2 and len(set(nodes)) == 2
    assert all(2 <= i.proc_delay <= 4 for i in t.instances)


def test_deploy_vnfs_refuses_existing_instances():
    with pytest.raises(TopologyError, match="already has"):
        deploy_vnfs(tiny_topology(), 1, (1, 5), np.random.default_rng(0))


def test_deploy_vnfs_refuses_more_instances_than_nodes():
    base = Topology(2, ((0, 1, 1),), (), 1)
    with pytest.raises(ValueError, match="distinct nodes"):
        deploy_vnfs(base, 3, (1, 5), np.random.default_rng(0))


def test_deploy_vnfs_refuses_bad_delay_range():
    base = Topology(2, ((0, 1, 1),), (), 1)
    with pytest.raises(ValueError, match="delay range"):
        deploy_vnfs(base, 1, (3, 2), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# change strategies

def test_cs1_sweep_preserves_invariants():
    t = internet2_fixture()
    rng = np.random.default_rng(7)
    for _ in range(300):
        m, stats = mutate_cs1_stats(t, rng)
        # constructing Topology re-validates: connected, simple, positive delays
        assert m.num_nodes == t.num_nodes + stats.node_add_successes
        assert m.instances == t.instances
        assert m.vnf_type_count == t.vnf_type_count
        expected_edges = (
            len(t.edges)
            + 2 * stats.node_add_successes
            + stats.edge_add_applied
            - stats.edge_remove_applied
        )
        assert len(m.edges) == expected_edges
        assert stats.edge_add_applied <= stats.edge_add_successes
        assert stats.edge_remove_applied <= stats.edge_remove_successes
        new_edges = set((u, v) for u, v, _ in m.edges) - set((u, v) for u, v, _ in t.edges)
        lo, hi = EDGE_DELAY_RANGE
        assert all(
            lo <= d <= hi for u, v, d in m.edges if (u, v) in new_edges
        )


def test_cs1_trial_means_match_their_coin_rates():
    # 12 trials at 0.1 and 15 trials at 0.3; a 1000-mutation mean sits well
    # inside 1.2 +/- 0.15 and 4.5 +/- 0.4 (about 4.5 sigma)
    t = internet2_fixture()
    rng = np.random.default_rng(11)
    node_adds = []
    edge_coins = []
    for _ in range(1000):
        _, stats = mutate_cs1_stats(t, rng)
        node_adds.append(stats.node_add_successes)
        edge_coins.append(stats.edge_add_successes)
    assert abs(np.mean(node_adds) - 1.2) < 0.15
    assert abs(np.mean(edge_coins) - 4.5) < 0.4


def test_cs1_is_deterministic_for_a_seed():
    t = internet2_fixture()
    a = mutate_cs1(t, np.random.default_rng(42))
    b = mutate_cs1(t, np.random.default_rng(42))
    assert a == b


def test_cs2_relocates_but_preserves_type_delay_multiset():
    t = internet2_fixture()
    rng = np.random.default_rng(5)
    placements_changed = 0
    for _ in range(100):
        m = mutate_cs2(t, rng)
        assert sorted((i.vnf_type, i.proc_delay) for i in m.instances) == sorted(
            (i.vnf_type, i.proc_delay) for i in t.instances
        )
        assert all(0 <= i.node < m.num_nodes for i in m.instances)
        if set(m.instances) != set(t.instances):
            placements_changed += 1
    # ten instances relocated uniformly: staying identical is (1/N)^10-rare
    assert placements_changed >= 99


def test_relocate_instances_keeps_everything_but_the_node():
    t = tiny_topology()
    m = relocate_instances(t, np.random.default_rng(1))
    assert sorted((i.vnf_type, i.proc_delay) for i in m.instances) == sorted(
        (i.vnf_type, i.proc_delay) for i in t.instances
    )
    assert m.edges == t.edges


# ---------------------------------------------------------------------------
# pools

def test_generate_pool_is_deterministic_and_sized():
    t = internet2_fixture()
    a = generate_pool(t, "cs1", pool_size=10, seed=3)
    b = generate_pool(t, "cs1", pool_size=10, seed=3)
    assert len(a.variants) == 10
    assert a.variants == b.variants
    assert a.strategy == "cs1"
    # variants are drawn sequentially, so they are not all the same graph
    assert len({topology_sha256(v) for v in a.variants}) > 1


def test_generate_pool_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="change strategy 'cs9'; expected cs1 or cs2"):
        generate_pool(internet2_fixture(), "cs9")


def test_pool_round_trip(tmp_path):
    pool = generate_pool(internet2_fixture(), "cs2", pool_size=5, seed=9)
    save_pool(pool, tmp_path / "pool")
    loaded = load_pool(tmp_path / "pool")
    assert loaded.base == pool.base
    assert loaded.variants == pool.variants
    assert loaded.strategy == "cs2"
    assert loaded.seed == 9


def test_load_pool_rejects_tampered_base(tmp_path):
    pool = generate_pool(internet2_fixture(), "cs1", pool_size=2, seed=0)
    save_pool(pool, tmp_path / "pool")
    base_file = tmp_path / "pool" / "base.json"
    doc = json.loads(base_file.read_text())
    doc["edges"][0][2] += 1
    base_file.write_text(json.dumps(doc))
    with pytest.raises(TopologyError, match="manifest hash"):
        load_pool(tmp_path / "pool")


def test_load_pool_needs_a_manifest(tmp_path):
    with pytest.raises(TopologyError, match="manifest"):
        load_pool(tmp_path)


@pytest.mark.parametrize("name", ["a\x00b", "../base.json", "", "missing.json"],
                         ids=["null-byte", "outside", "the-directory", "missing"])
def test_load_pool_refuses_a_listed_name_that_is_not_a_file_in_it(tmp_path, name):
    pool = generate_pool(internet2_fixture(), "cs1", pool_size=2, seed=0)
    d = tmp_path / "pool"
    save_pool(pool, d)
    (tmp_path / "base.json").write_text(save_topology(pool.base))
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["variant_files"][1] = name
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(TopologyError, match="not a file in the pool directory") as info:
        load_pool(d)
    assert str(info.value).startswith(f"{d}: malformed pool manifest")
    assert "\n" not in str(info.value)


# ---------------------------------------------------------------------------
# fuzzed documents: each loader returns, or refuses with a ValueError that
# names the file

@FUZZ
@given(st.data())
def test_a_fuzzed_topology_file_loads_or_is_refused_by_name(tmp_path, data):
    path = tmp_path / "t.json"
    path.write_text(data.draw(one_leaf_replaced(json.loads(save_topology(internet2_fixture())))))
    try:
        load_topology_file(path)
    except ValueError as exc:
        assert str(path) in str(exc)


@pytest.fixture(scope="module")
def pool_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz") / "pool"
    save_pool(generate_pool(internet2_fixture(), "cs2", pool_size=3, seed=1), d)
    return d


@FUZZ
@given(st.data())
def test_a_fuzzed_pool_manifest_loads_or_is_refused_by_name(pool_dir, data):
    manifest_file = pool_dir / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    try:
        manifest_file.write_text(data.draw(one_leaf_replaced(manifest)))
        load_pool(pool_dir)
    except ValueError as exc:
        assert str(pool_dir) in str(exc)
    finally:
        manifest_file.write_text(json.dumps(manifest))
