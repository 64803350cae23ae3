import re
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from numpy.testing import assert_allclose

import pemnet.graphs
from pemnet.errors import (
    ConfigurationError,
    FileFormatError,
    NilpotentGraphError,
)
from pemnet.graphs import (
    GRAPH_MODELS,
    NO_EDGE,
    DirectedGraph,
    GraphConfig,
    _checked_delta,
    _pair_at,
    anticlustering,
    assign_lags,
    gen_backbone,
    gen_gnm,
    gen_graph,
    gen_graph_non_nilpotent,
    gen_shooting_star,
    graph_metrics,
    is_nilpotent,
    load_edge_list,
    normalize_adjacency,
    save_edge_list,
)
from pemnet.numerics import spectral_radius


def complete_graph(n):
    return DirectedGraph(
        n, tuple((i, j) for i in range(n) for j in range(n) if i != j)
    )


def undirected_degrees(g):
    deg = np.zeros(g.n, dtype=int)
    seen = set()
    for u, v in g.edges:
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            deg[u] += 1
            deg[v] += 1
    return deg


def has_cycle_dfs(g):
    # independent oracle for is_nilpotent: DFS back-edge detection
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
    state = [0] * g.n  # 0 unvisited, 1 on stack, 2 done
    for start in range(g.n):
        if state[start]:
            continue
        stack = [(start, iter(adj[start]))]
        state[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state[nxt] == 1:
                    return True
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                stack.pop()
    return False


class TestDirectedGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ConfigurationError):
            DirectedGraph(3, ((0, 0),))

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ConfigurationError):
            DirectedGraph(3, ())
        with pytest.raises(ConfigurationError):
            DirectedGraph(3, ((0, 5),))

    def test_adjacency_orientation(self):
        g = DirectedGraph(3, ((0, 1),), {(0, 1): 0}, delta=0)
        a = g.adjacency()
        assert a[1, 0] == 1.0 and a.sum() == 1.0

    # Fancy indexing wraps negative indices, so each bad endpoint or lag must
    # be refused before the lag matrix is written.
    @pytest.mark.parametrize("edges, lags, delta, message", [
        (((-1, 2),), None, None, r"edge \(-1, 2\) out of range for n=3"),
        (((2, -3),), None, None, r"edge \(2, -3\) out of range for n=3"),
        (((0, 3),), None, None, r"edge \(0, 3\) out of range for n=3"),
        (((1, 0), (-1, 1)), None, None, r"edge \(-1, 1\) out of range"),
        (((1, 1), (2, 5)), None, None, r"self-loop \(1, 1\)"),
        (((1, 1), (0, 5)), None, None, r"edge \(0, 5\) out of range"),
        (((0, 1), (1, 2)), {(1, 2): -1}, 2, r"lag -1 on edge \(1, 2\) outside \[0, 2\]"),
        (((0, 1), (1, 2)), {(0, 1): 3}, 2, r"lag 3 on edge \(0, 1\) outside \[0, 2\]"),
        (((0, 1),), {(0, 1): -2}, None, r"lag -2 on edge \(0, 1\) outside \[0, -2\]"),
        (((0, 1),), {(0, 1): 1}, 0, r"lag 1 on edge \(0, 1\) outside \[0, 0\]"),
        (((0, 10**20),), None, None, "endpoint or lag out of range"),
        (((0, 1),), {(0, 1): 10**20}, 2, "endpoint or lag out of range"),
    ])
    def test_rejects_bad_endpoints_and_lags(self, tmp_path, edges, lags, delta, message):
        with pytest.raises(ConfigurationError, match=message):
            DirectedGraph(3, edges, lags, delta=delta)
        lags = lags or {}
        lines = [f"{u} {v} {lags.get((u, v), 0)}" for u, v in edges]
        path = tmp_path / "bad.txt"
        header = f"3 {len(edges)} {2 if delta is None else delta}\n"
        path.write_text(header + "\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            load_edge_list(str(path))

    @pytest.mark.parametrize("entries, delta, message", [
        ({}, None, "at least one edge"),
        ({(1, 1): 0}, None, r"self-loop \(1, 1\)"),
        ({(0, 1): 1}, 0, r"lag 1 on edge \(1, 0\) outside \[0, 0\]"),
        ({(0, 1): -2}, 2, r"lag -2 on edge \(1, 0\) outside \[0, 2\]"),
        ({(0, 1): 3, (2, 0): 1}, 2, r"lag 3 on edge \(1, 0\) outside \[0, 2\]"),
    ])
    def test_lag_matrix_validated(self, entries, delta, message):
        lag = np.full((3, 3), NO_EDGE)
        for (target, source), k in entries.items():
            lag[target, source] = k
        with pytest.raises(ConfigurationError, match=message):
            DirectedGraph.from_lag_matrix(lag, delta)

    def test_lag_on_a_non_edge_refused(self, tmp_path):
        with pytest.raises(ConfigurationError, match=r"lag given for \(1, 2\), which is not"):
            DirectedGraph(3, [(0, 1)], {(1, 2): 3})
        with pytest.raises(ConfigurationError, match=r"\(2, 0\)"):
            DirectedGraph(3, [(0, 1), (1, 2)], {(0, 1): 1, (1, 2): 0, (2, 0): 1})
        # an edge list's lags come from its own edge rows
        path = tmp_path / "g.txt"
        path.write_text("3 2 2\n0 1 2\n1 2 1\n")
        assert load_edge_list(str(path)).lags == {(0, 1): 2, (1, 2): 1}

    def test_lag_matrix_accepted_exactly_where_its_edge_arrays_are(self, monkeypatch):
        # from_lag_matrix accepts from whole-matrix reductions; the edge arrays
        # it used to walk in every case stay the oracle, message for message
        walked = []

        def spy(*args):
            walked.append(args)
            return _checked_delta(*args)

        monkeypatch.setattr(pemnet.graphs, "_checked_delta", spy)
        rng = np.random.default_rng(25)
        outcomes = Counter()
        for _ in range(2000):
            n, top = int(rng.integers(1, 6)), int(rng.integers(0, 4))
            lag = rng.integers(NO_EDGE, top + 1, size=(n, n))
            lag.flat[:: n + 1] = NO_EDGE
            for _ in range(rng.integers(0, 3)):  # entries in [-3, top + 2], diagonal too
                lag[rng.integers(n), rng.integers(n)] = rng.integers(-3, top + 3)
            delta = (None, top, np.int64(top), -int(rng.integers(1, 3)))[rng.integers(4)]
            sources, targets = np.nonzero(lag.T != NO_EDGE)
            walked.clear()
            try:
                want = _checked_delta(n, sources, targets, lag[targets, sources], delta)
            except ConfigurationError as exc:
                with pytest.raises(ConfigurationError) as got:
                    DirectedGraph.from_lag_matrix(lag, delta)
                assert str(got.value) == str(exc) and len(walked) == 1
                outcomes[str(exc).split()[0]] += 1
            else:
                g = DirectedGraph.from_lag_matrix(lag, delta)
                assert (g.delta, type(g.delta)) == (want, int) and not walked
                assert np.array_equal(g.lag, lag)
                outcomes["accepted"] += 1
        # every fault is met, and a fair share of matrices is accepted
        assert set(outcomes) == {"accepted", "graph", "self-loop", "lag"}
        assert min(outcomes.values()) >= 50

    def test_lag_matrix_must_be_square(self):
        with pytest.raises(ConfigurationError, match="square"):
            DirectedGraph.from_lag_matrix(np.zeros((2, 3), dtype=int))
        with pytest.raises(ConfigurationError, match="n must be >= 1, got 0"):
            DirectedGraph.from_lag_matrix(np.zeros((0, 0), dtype=int))

    @pytest.mark.parametrize("build, message", [
        (lambda: DirectedGraph(3.0, [(0, 1)]), "n must be an integer, got 3.0"),
        (lambda: DirectedGraph(3, [(0, 1)], {(0, 1): 1}, delta=1.5),
         "delta must be an integer, got 1.5"),
        (lambda: DirectedGraph(3, [(0, 1)], {(0, 1): 1.5}),
         r"lag on edge \(0, 1\) must be an integer, got 1.5"),
        (lambda: DirectedGraph(3, [(0, 1)], {(0, 1): 1.0}),
         r"lag on edge \(0, 1\) must be an integer, got 1.0"),
        (lambda: DirectedGraph.from_lag_matrix([[-1, 1], [-1, -1]], delta=1.7),
         "delta must be an integer, got 1.7"),
        (lambda: DirectedGraph.from_lag_matrix([[-1, 1.6], [-1, -1]]),
         "lag matrix entry 1.6 is not an integer"),
        (lambda: DirectedGraph.from_lag_matrix([[-1, np.nan], [-1, -1]]),
         "lag matrix entry nan is not an integer"),
        (lambda: DirectedGraph.from_lag_matrix([[-1, np.inf], [-1, -1]]),
         "lag matrix entry inf is not an integer"),
        (lambda: DirectedGraph.from_lag_matrix([[False, True], [False, False]]),
         "lag matrix must hold integers, got bool"),
        (lambda: DirectedGraph.from_lag_matrix([[-1, 1e30], [-1, -1]]),
         r"lag matrix entry 1e\+30 is outside the int64 range"),
        (lambda: DirectedGraph.from_lag_matrix([[-1, -1e30], [-1, -1]]),
         r"lag matrix entry -1e\+30 is outside the int64 range"),
    ], ids=["n", "delta", "lag", "whole-float-lag", "matrix-delta", "matrix-fraction",
            "matrix-nan", "matrix-inf", "matrix-bool", "matrix-above-int64",
            "matrix-below-int64"])
    @pytest.mark.filterwarnings("error")  # refused before numpy's cast could warn
    def test_counts_must_be_integers(self, build, message):
        with pytest.raises(ConfigurationError, match=message):
            build()

    def test_integer_counts_pass(self):
        g = DirectedGraph(np.int64(3), [(0, 1)], {(0, 1): np.int32(1)}, delta=np.int64(2))
        assert (g.n, g.delta, g.lags) == (3, 2, {(0, 1): 1})
        # a float lag matrix of whole numbers is read as the integer one
        lag = np.array([[-1, 1], [-1, -1]])
        for same in (lag.astype(float), lag.astype(np.int8)):
            got = DirectedGraph.from_lag_matrix(same, delta=np.int64(1))
            assert got == DirectedGraph.from_lag_matrix(lag) and got.lag.dtype == np.int64

    def test_views_agree_with_lag_matrix(self):
        edges = ((2, 0), (0, 1), (0, 2), (3, 1), (0, 1))
        g = DirectedGraph(4, edges, {(0, 2): 3, (3, 1): 1})
        assert g.edges == ((0, 1), (0, 2), (2, 0), (3, 1))
        assert g.lags == {(0, 1): 0, (0, 2): 3, (2, 0): 0, (3, 1): 1}
        assert (g.m, g.delta) == (4, 3)
        expected = np.full((4, 4), NO_EDGE)
        for (u, v), k in g.lags.items():
            expected[v, u] = k
        assert np.array_equal(g.lag, expected)
        assert g == DirectedGraph.from_lag_matrix(expected)
        assert g.has_edge(0, 2) and not g.has_edge(2, 1) and not g.has_edge(-1, 0)
        with pytest.raises(ValueError):
            g.lag[0, 1] = 0  # read-only


class TestGenGnm:
    def test_saturated_case(self):
        g = gen_gnm(GraphConfig(n=3, d_e=1.0, r_e=1.0), np.random.default_rng(0))
        assert g.m == 6
        assert graph_metrics(g) == (1.0, 1.0)

    def test_default_counts(self):
        g = gen_gnm(GraphConfig(n=10, d_e=0.5, r_e=0.5), np.random.default_rng(1))
        assert g.m == 45
        edge_set = set(g.edges)
        reciprocated = sum(1 for (u, v) in g.edges if (v, u) in edge_set)
        assert reciprocated == 22  # 2 * round(0.5 * 45 / 2)

    def test_no_reciprocal_branch(self):
        g = gen_gnm(GraphConfig(n=10, d_e=0.1, r_e=0.0), np.random.default_rng(2))
        assert g.m == 9
        assert graph_metrics(g)[1] == 0.0

    def test_infeasible_raises(self):
        # all ordered pairs with no reciprocation cannot fit in n(n-1)/2 pairs
        with pytest.raises(ConfigurationError):
            gen_gnm(GraphConfig(n=4, d_e=1.0, r_e=0.0), np.random.default_rng(0))

    def test_full_reciprocity_with_odd_edge_count(self):
        # m = 45 is odd, so at most 44 edges can sit in reciprocal pairs
        g = gen_gnm(GraphConfig(n=10, d_e=0.5, r_e=1.0), np.random.default_rng(3))
        assert g.m == 45
        assert graph_metrics(g)[1] == pytest.approx(44.0 / 45.0)

    def test_pair_decode_matches_combinations_order(self):
        for n in range(2, 201):
            first, second = _pair_at(n, np.arange(n * (n - 1) // 2))
            want = np.triu_indices(n, 1)
            assert np.array_equal(first, want[0]) and np.array_equal(second, want[1])
            assert first.dtype == second.dtype == np.int64

    def test_pair_decode_at_row_ends(self):
        # each row's first and last pair, where a rounded root would err
        n = 3000
        rows = np.arange(n - 1)
        starts = rows * (2 * n - 1 - rows) // 2
        first, second = _pair_at(n, np.concatenate([starts, starts + n - 2 - rows]))
        assert np.array_equal(first, np.concatenate([rows, rows]))
        assert np.array_equal(second, np.concatenate([rows + 1, np.full(n - 1, n - 1)]))


class TestGenBackbone:
    def test_rr_lattice_targets(self):
        cfg = GraphConfig(model="rr", n=10, d_e=0.2, r_e=1.0)
        g = gen_backbone(cfg, np.random.default_rng(0))
        assert g.m == 18
        assert graph_metrics(g)[1] == 1.0
        # 9 lattice pairs on 10 nodes: ring missing one edge
        assert sorted(undirected_degrees(g).tolist()) == [1, 1] + [2] * 8

    def test_sw_zero_rewiring_equals_rr(self):
        cfg_rr = GraphConfig(model="rr", n=12, d_e=0.3, r_e=0.4)
        cfg_sw = GraphConfig(model="sw", n=12, d_e=0.3, r_e=0.4, rewire_p=0.0)
        g_rr = gen_backbone(cfg_rr, np.random.default_rng(5))
        g_sw = gen_backbone(cfg_sw, np.random.default_rng(5))
        assert g_rr.edges == g_sw.edges

    @pytest.mark.parametrize("rewire_p", [-0.1, 1.5])
    def test_rejects_rewiring_probability_by_value(self, rewire_p):
        with pytest.raises(ConfigurationError, match=rf"in \[0, 1\], got {rewire_p}"):
            GraphConfig(model="sw", rewire_p=rewire_p)

    def test_sw_rewired_keeps_targets(self):
        cfg = GraphConfig(model="sw", n=12, d_e=0.3, r_e=0.4, rewire_p=0.3)
        g = gen_backbone(cfg, np.random.default_rng(6))
        assert g.m == cfg.m
        density, reciprocity = graph_metrics(g)
        assert abs(reciprocity - 0.4) <= 2.0 / g.m

    def test_ba_counts_and_heavy_tail(self):
        cfg = GraphConfig(model="ba", n=20, d_e=0.1, r_e=0.0)
        heavy = 0
        for seed in range(100):
            g = gen_backbone(cfg, np.random.default_rng(seed))
            assert g.m == 38
            assert graph_metrics(g)[1] == 0.0
            deg = undirected_degrees(g)
            heavy += deg.max() >= deg.mean() + 2
        assert heavy >= 50

    def test_generator_targets_across_models(self):
        # density within 1/(n(n-1)) and reciprocity within 2/m of the targets
        for model in ("gnm", "ba", "rr", "sw"):
            for r_e in (0.0, 0.5, 1.0):
                cfg = GraphConfig(model=model, n=12, d_e=0.3, r_e=r_e)
                g = gen_graph(cfg, np.random.default_rng(17))
                density, reciprocity = graph_metrics(g)
                assert abs(density - 0.3) <= 1.0 / (12 * 11)
                assert abs(reciprocity - r_e) <= 2.0 / g.m

    @pytest.mark.parametrize("model", GRAPH_MODELS)
    def test_one_feasibility_rule_for_every_model(self, model):
        # 12 edges without a reciprocal pair need 12 of the 6 pairs of 4 nodes
        cfg = GraphConfig(model=model, n=4, d_e=1.0, r_e=0.0)
        with pytest.raises(ConfigurationError, match=re.escape(
                "infeasible targets: 12 edges with 0 reciprocal pairs need 12 node "
                "pairs, more than the 6 of n=4 nodes")):
            gen_graph(cfg, np.random.default_rng(0))

    def test_gnm_config_has_no_backbone(self):
        with pytest.raises(ConfigurationError, match="model 'gnm' has no backbone generator"):
            gen_backbone(GraphConfig(), np.random.default_rng(0))

    def test_gives_up_on_a_config_with_only_nilpotent_graphs(self):
        # one edge on two nodes has no cycle: every draw is nilpotent
        with pytest.raises(ConfigurationError, match="no non-nilpotent sample within 1000"):
            gen_graph_non_nilpotent(GraphConfig(n=2, d_e=0.5, r_e=0.0),
                                    np.random.default_rng(0))

    def test_infeasible_ba(self):
        # too few backbone edges for preferential attachment on n nodes
        cfg = GraphConfig(model="ba", n=20, d_e=0.04, r_e=0.0)  # P = 15 < n - 1
        with pytest.raises(ConfigurationError):
            gen_backbone(cfg, np.random.default_rng(0))


class TestGraphConfig:
    # a case keeps its id when its message is reworded
    @pytest.mark.parametrize("kwargs, message", [
        ({"model": "grid"}, "unknown graph model 'grid'"),
        pytest.param({"n": 1}, "n must be >= 2, got 1", id="kwargs1-need n >= 2, got 1"),
        ({"n": 10.0}, "n must be an integer, got 10.0"),
        ({"n": "10"}, "n must be an integer, got '10'"),
        pytest.param({"d_e": 0.0}, r"d_e must lie in \(0, 1\], got 0.0",
                     id=r"kwargs4-edge density must be in \(0, 1\], got 0.0"),
        pytest.param({"d_e": 1.5}, r"d_e must lie in \(0, 1\], got 1.5",
                     id=r"kwargs5-edge density must be in \(0, 1\], got 1.5"),
        pytest.param({"r_e": -0.1}, r"r_e must lie in \[0, 1\], got -0.1",
                     id=r"kwargs6-edge reciprocity must be in \[0, 1\], got -0.1"),
        pytest.param({"delta": -1}, "delta must be >= 0, got -1",
                     id="kwargs7-max lag must be >= 0, got -1"),
        ({"delta": 1.5}, "delta must be an integer, got 1.5"),
        pytest.param({"rewire_p": 2.0}, r"rewire_p must lie in \[0, 1\], got 2.0",
                     id=r"kwargs9-rewiring probability must be in \[0, 1\], got 2.0"),
        ({"n": 3, "d_e": 0.05}, "configuration yields zero edges"),
    ])
    def test_refusals(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            GraphConfig(**kwargs)

    def test_numpy_integers_pass(self):
        config = GraphConfig(n=np.int64(12), delta=np.int32(2))
        g = assign_lags(gen_graph(config, np.random.default_rng(0)), config.delta,
                        np.random.default_rng(1))
        assert (g.n, g.delta) == (12, 2)


class TestAssignLags:
    def test_negative_delta_refused(self):
        with pytest.raises(ConfigurationError, match="delta must be >= 0, got -1"):
            assign_lags(complete_graph(4), -1, np.random.default_rng(0))

    @pytest.mark.parametrize("delta", [1.5, 2.0])
    def test_delta_must_be_an_integer(self, delta):
        rng, fresh = np.random.default_rng(0), np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match=f"delta must be an integer, got {delta}"):
            assign_lags(complete_graph(4), delta, rng)
        assert rng.random() == fresh.random()

    def test_zero_delta(self):
        # every lag 0, the equal lag-0 graph back, and nothing drawn
        g = complete_graph(5)
        lagged = assign_lags(complete_graph(5), 3, np.random.default_rng(0))
        for graph in (g, lagged):
            rng, fresh = np.random.default_rng(4), np.random.default_rng(4)
            out = assign_lags(graph, 0, rng)
            assert out == g
            assert out.delta == 0
            assert rng.random() == fresh.random()

    def test_one_draw_per_edge_in_edge_order(self):
        g = gen_gnm(GraphConfig(n=12, d_e=0.3), np.random.default_rng(5))
        rng, fresh = np.random.default_rng(6), np.random.default_rng(6)
        out = assign_lags(g, 4, rng)
        assert out.edges == g.edges
        assert [out.lags[e] for e in g.edges] == fresh.integers(0, 5, size=g.m).tolist()
        assert rng.random() == fresh.random()

    def test_support_bound(self):
        g = assign_lags(complete_graph(8), 5, np.random.default_rng(1))
        assert max(g.lags.values()) <= 5
        assert g.delta == 5

    def test_uniform_frequencies(self):
        # ~1000 edges; each lag frequency within 4 sigma of 1/6
        g = assign_lags(complete_graph(33), 5, np.random.default_rng(2))
        m = g.m
        assert m >= 1000
        counts = np.bincount(list(g.lags.values()), minlength=6)
        sigma = np.sqrt((1 / 6) * (5 / 6) / m)
        assert np.abs(counts / m - 1 / 6).max() < 4 * sigma


class TestNormalizeAdjacency:
    def test_ring_unchanged(self):
        ring = DirectedGraph(3, ((0, 1), (1, 2), (2, 0)))
        a_norm, mats = normalize_adjacency(ring)
        assert_allclose(a_norm, ring.adjacency(), atol=1e-12)
        assert len(mats) == 1

    def test_complete_graph_halved(self):
        a_norm, _ = normalize_adjacency(complete_graph(3))
        off = ~np.eye(3, dtype=bool)
        assert_allclose(a_norm[off], 0.5, atol=1e-9)

    def test_nilpotent_rejected(self):
        with pytest.raises(NilpotentGraphError):
            normalize_adjacency(DirectedGraph(2, ((0, 1),)))

    def test_unit_radius_and_lag_split(self):
        rng = np.random.default_rng(9)
        for seed in range(20):
            cfg = GraphConfig(n=8, d_e=0.4, r_e=0.5, delta=3)
            g = gen_graph_non_nilpotent(cfg, np.random.default_rng(seed))
            g = assign_lags(g, 3, rng)
            a_norm, mats = normalize_adjacency(g)
            assert abs(spectral_radius(a_norm) - 1.0) < 1e-9
            assert np.array_equal(sum(mats), a_norm)


class TestIsNilpotent:
    def test_path_is_nilpotent(self):
        # a path on n nodes is peeled one node per round, n rounds in all
        for n in (3, 64, 150):
            path = tuple((i, i + 1) for i in range(n - 1))
            assert is_nilpotent(DirectedGraph(n, path))
            assert spectral_radius(DirectedGraph(n, path).adjacency()) == 0.0
            assert not is_nilpotent(DirectedGraph(n, path + ((n - 1, 0),)))

    def test_reciprocal_pair_is_not(self):
        assert not is_nilpotent(DirectedGraph(4, ((0, 1), (1, 0))))

    def test_ring_is_not(self):
        assert not is_nilpotent(DirectedGraph(3, ((0, 1), (1, 2), (2, 0))))

    def test_agrees_with_dfs_cycle_detector(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            m = int(rng.integers(1, len(pairs) + 1))
            idx = rng.choice(len(pairs), size=m, replace=False)
            g = DirectedGraph(n, tuple(pairs[t] for t in idx))
            assert is_nilpotent(g) == (not has_cycle_dfs(g))
        # sparse n <= 150: random DAGs, then each with one edge against its
        # topological order, which closes a cycle when a path runs back
        outcomes = set()
        for _ in range(60):
            n = int(rng.integers(20, 151))
            order = rng.permutation(n)
            rows, cols = np.nonzero(np.triu(rng.random((n, n)) < 3.0 / n, k=1))
            dag = [(int(order[a]), int(order[b])) for a, b in zip(rows, cols)]
            a, b = sorted(rng.choice(n, size=2, replace=False))
            for edges in (dag, dag + [(int(order[b]), int(order[a]))]):
                g = DirectedGraph(n, tuple(edges))
                assert is_nilpotent(g) == (not has_cycle_dfs(g))
                assert (spectral_radius(g.adjacency()) == 0.0) == is_nilpotent(g)
                outcomes.add(is_nilpotent(g))
        assert outcomes == {True, False}
        for n in (64, 100, 150):
            for model in ("gnm", "ba", "rr", "sw"):
                g = gen_graph(GraphConfig(model=model, n=n, d_e=0.05), rng)
                assert is_nilpotent(g) == (not has_cycle_dfs(g))


class TestShootingStar:
    def test_pure_star_boundary(self):
        g = gen_shooting_star(10, 9)
        deg = undirected_degrees(g)
        assert deg[0] == 9
        assert sorted(deg.tolist()) == [1] * 9 + [9]

    def test_pure_path_boundary(self):
        g = gen_shooting_star(10, 2)
        assert sorted(undirected_degrees(g).tolist()) == [1, 1] + [2] * 8

    def test_intermediate_counts(self):
        g = gen_shooting_star(10, 5)
        assert undirected_degrees(g)[0] == 5
        assert g.m == 18  # 2 * (n - 1) directed edges

    def test_tree_and_reciprocity(self):
        for k in range(2, 10):
            g = gen_shooting_star(10, k)
            assert g.m == 18
            assert graph_metrics(g)[1] == 1.0
            assert not is_nilpotent(g)
            # connected: breadth-first search from the hub reaches every node
            reached, frontier = {0}, [0]
            adj = {u: set() for u in range(10)}
            for u, v in g.edges:
                adj[u].add(v)
            while frontier:
                node = frontier.pop()
                for nxt in adj[node] - reached:
                    reached.add(nxt)
                    frontier.append(nxt)
            assert reached == set(range(10))

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            gen_shooting_star(10, 1)
        with pytest.raises(ConfigurationError):
            gen_shooting_star(10, 10)

    @pytest.mark.parametrize("n, hub_degree, message", [
        (10.0, 3, "n must be an integer, got 10.0"),
        (10, 3.0, "hub_degree must be an integer, got 3.0"),
    ])
    def test_counts_must_be_integers(self, n, hub_degree, message):
        with pytest.raises(ConfigurationError, match=message):
            gen_shooting_star(n, hub_degree)

    def test_numpy_integers_pass(self):
        assert gen_shooting_star(np.int64(10), np.int32(3)) == gen_shooting_star(10, 3)


class TestAnticlustering:
    def test_complete_graph_zero(self):
        values, mean = anticlustering(complete_graph(5))
        assert_allclose(values, 0.0, atol=1e-12)
        assert mean == 0.0

    def test_star(self):
        g = gen_shooting_star(6, 5)  # pure star on 6 nodes
        values, _ = anticlustering(g)
        assert values[0] == 5.0
        assert_allclose(values[1:], 1.0)

    def test_clique_with_pendant(self):
        pairs = [(0, 1), (0, 2), (1, 2), (0, 3)]
        edges = tuple(pairs) + tuple((v, u) for u, v in pairs)
        values, _ = anticlustering(DirectedGraph(4, edges))
        assert values[0] == pytest.approx(2.0)  # k=3, one of three pairs linked


def model_graphs():
    for model in GRAPH_MODELS:
        for seed in range(4):
            rng = np.random.default_rng(seed)
            config = GraphConfig(model=model, n=int(rng.integers(10, 30)),
                                 d_e=float(rng.uniform(0.25, 0.5)),
                                 r_e=float(rng.uniform(0.0, 1.0)))
            yield gen_graph(config, rng)


class TestMetricsAgainstNetworkx:
    def test_reciprocity(self):
        for g in model_graphs():
            digraph = nx.DiGraph(g.edges)
            assert graph_metrics(g)[1] == pytest.approx(nx.reciprocity(digraph))

    def test_anticlustering(self):
        for g in model_graphs():
            undirected = nx.Graph(g.edges)
            undirected.add_nodes_from(range(g.n))
            c = nx.clustering(undirected)
            expected = [undirected.degree(i) * (1.0 - c[i]) for i in range(g.n)]
            values, mean = anticlustering(g)
            assert_allclose(values, expected, rtol=1e-12, atol=1e-12)
            assert mean == pytest.approx(np.mean(expected))


class TestGraphMetrics:
    def test_complete(self):
        assert graph_metrics(complete_graph(4)) == (1.0, 1.0)

    def test_single_edge(self):
        g = DirectedGraph(5, ((0, 1),))
        density, reciprocity = graph_metrics(g)
        assert density == pytest.approx(1.0 / 20.0)
        assert reciprocity == 0.0

    def test_gnm_defaults(self):
        g = gen_gnm(GraphConfig(), np.random.default_rng(0))
        density, reciprocity = graph_metrics(g)
        assert density == pytest.approx(45.0 / 90.0)
        assert reciprocity == pytest.approx(22.0 / 45.0)


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        g = assign_lags(gen_gnm(GraphConfig(delta=4), rng), 4, rng)
        path = tmp_path / "g.txt"
        save_edge_list(g, str(path))
        assert path.read_text() == f"{g.n} {g.m} {g.delta}\n" + "".join(
            f"{u} {v} {g.lags[(u, v)]}\n" for u, v in g.edges)
        loaded = load_edge_list(str(path))
        assert loaded.edges == g.edges
        assert loaded.lags == g.lags
        assert loaded.delta == g.delta

    def test_rejects_self_loop(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 0\n1 1 0\n")
        with pytest.raises(FileFormatError):
            load_edge_list(str(path))

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 0\n0 5 0\n")
        with pytest.raises(FileFormatError):
            load_edge_list(str(path))

    @pytest.mark.parametrize("lines, lineno", [
        ("2 2 0\n0 1 0\n0 1 0\n", 3),
        ("3 2 2\n0 1 0\n0 1 2\n", 3),
        ("3 2 0\n\n0 1 0\n\n0 1 0\n", 5),
    ], ids=["same-lag", "other-lag", "blank-lines"])
    def test_rejects_repeated_edge(self, tmp_path, lines, lineno):
        path = tmp_path / "bad.txt"
        path.write_text(lines)
        with pytest.raises(FileFormatError, match=rf":{lineno}: repeated edge \(0, 1\)"):
            load_edge_list(str(path))

    def test_absurd_node_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("100000000000000000000 1 0\n0 1 0\n")
        with pytest.raises(FileFormatError, match="n=100000000000000000000"):
            load_edge_list(str(path))
        with pytest.raises(ConfigurationError, match="n=100000000000000000000"):
            DirectedGraph(10**20, ((0, 1),))

    @pytest.mark.parametrize("lines, message", [
        ("", "empty edge-list file"),
        ("\n  \n", "empty edge-list file"),
        ("3 x 0\n0 1 0\n", ":1: bad header '3 x 0'"),
        ("3 0 0\n", "graph must have at least one edge"),
    ], ids=["empty", "blank", "bad-header", "no-rows"])
    def test_rejects_file_without_edges(self, tmp_path, lines, message):
        path = tmp_path / "bad.txt"
        path.write_text(lines)
        with pytest.raises(FileFormatError, match=re.escape(message)):
            load_edge_list(str(path))

    def test_rejects_wrong_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2 0\n0 1 0\n")
        with pytest.raises(FileFormatError):
            load_edge_list(str(path))

    @pytest.mark.parametrize("lines, message", [
        ("3 2 0\n0 1 0\n", "header claims 2 rows, found 1"),
        ("3 2 0\n0 1 0\n\n1 2\n", ":4: expected 3 values, got 2"),
        ("3 2 0\n\n0 1 0 0\n1 2 0\n", ":3: expected 3 values, got 4"),
        ("3 2 0\n0 1 0\n\n1 x 0\n", ":4: bad int in '1 x 0'"),
        ("3 2 0\n0 1 0\n1 2 0.5\n", ":3: bad int in '1 2 0.5'"),
    ], ids=["count", "short-after-blank", "long-after-blank", "bad-int", "float-lag"])
    def test_bad_row_names_its_line(self, tmp_path, lines, message):
        path = tmp_path / "bad.txt"
        path.write_text(lines)
        with pytest.raises(FileFormatError, match=re.escape(message)):
            load_edge_list(str(path))

    def test_reads_tokens_only_int_takes(self, tmp_path):
        # numpy's parser refuses 1_000; the token-by-token pass reads it
        path = tmp_path / "g.txt"
        path.write_text("1_001 2 0\n0 1_000 0\n1_000 0 0\n")
        g = load_edge_list(str(path))
        assert g.n == 1001 and g.edges == ((0, 1000), (1000, 0))
