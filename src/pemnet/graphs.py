"""Directed ground-truth networks: generators, lag assignment, metrics, serialization.

A graph is one (n, n) signed integer lag matrix: lag[target, source] = k for
an edge source -> target with transmission lag k, NO_EDGE (-1) elsewhere. Its
mask lag != NO_EDGE is the adjacency A[target, source], so row i lists the
inputs of node i. Everything from generation to accuracy works on these
arrays; the one view, the sorted (source, target) edge tuples built on first
use, is read by perfbench's reference check and by tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConfigurationError, FileFormatError, NilpotentGraphError, _data_lines,
                     _data_table, _require_integers, _require_reals)
from .numerics import _pattern_nilpotent, spectral_radius

GRAPH_MODELS = ("gnm", "er", "ba", "rr", "sw")

NO_EDGE = -1

# gen_graph_non_nilpotent gives up after this many nilpotent draws.
_MAX_NILPOTENT_DRAWS = 1000

# _preferential_attachment_pairs gives up after this many leftover-edge draws.
_MAX_LEFTOVER_DRAWS = 100_000

Edge = tuple[int, int]


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _checked_delta(n: int, sources, targets, lags, delta: int | None) -> int:
    """Validate edges given as arrays in (source, target) order and return the
    max lag (the largest assigned when delta is None). Errors name the first fault."""
    _require_integers(1, n=n)
    _require_integers(delta=0 if delta is None else delta)
    if not sources.size:
        raise ConfigurationError("graph must have at least one edge")
    bad = (sources == targets) | (np.minimum(sources, targets) < 0)
    bad |= np.maximum(sources, targets) >= n
    if bad.any():
        u, v = int(sources[bad.argmax()]), int(targets[bad.argmax()])
        if u == v:
            raise ConfigurationError(f"self-loop ({u}, {v}) is not allowed")
        raise ConfigurationError(f"edge ({u}, {v}) out of range for n={n}")
    delta = int(lags.max()) if delta is None else int(delta)
    bad = (lags < 0) | (lags > delta)
    if bad.any():
        i = int(bad.argmax())
        e = (int(sources[i]), int(targets[i]))
        raise ConfigurationError(f"lag {lags[i]} on edge {e} outside [0, {delta}]")
    return delta


class DirectedGraph:
    """A directed graph with per-edge transmission lags, held as one lag matrix.

    Built from (source, target) pairs and a lags dict (a missing lag is 0; a
    lag on a pair that is not an edge is refused), or from a lag matrix with
    from_lag_matrix, and validated once. delta is the largest lag the
    generating configuration allows (None: the largest one assigned). lag and
    mask are read-only; edges, the one view, lists the sorted (source,
    target) pairs.
    """

    def __init__(self, n: int, edges, lags: dict[Edge, int] | None = None,
                 delta: int | None = None):
        lags = lags or {}
        try:
            pairs = np.unique(np.asarray(list(edges), dtype=np.int64).reshape(-1, 2), axis=0)
            keys = list(map(tuple, pairs.tolist()))
            named = {f"lag on edge {e}": lags.get(e, 0) for e in keys}
            _require_integers(**named)
            k = np.array(list(named.values()), dtype=np.int64)
        except OverflowError as exc:
            raise ConfigurationError(f"edge endpoint or lag out of range: {exc}") from exc
        stray = set(lags).difference(keys)
        if stray:
            raise ConfigurationError(f"lag given for {min(stray)}, which is not an edge")
        delta = _checked_delta(n, *pairs.T, k, delta)
        try:
            lag = np.full((n, n), NO_EDGE)
        except (ValueError, MemoryError) as exc:
            raise ConfigurationError(f"cannot hold a lag matrix for n={n}: {exc}") from exc
        lag[pairs[:, 1], pairs[:, 0]] = k
        self._init(lag, delta)

    @classmethod
    def from_lag_matrix(cls, lag, delta: int | None = None) -> DirectedGraph:
        """The graph with lag[target, source] on each edge and NO_EDGE elsewhere.

        lag has a signed integer dtype, since NO_EDGE is -1, and is read as
        int64, which holds every such dtype. After its dtype, shape and delta,
        a matrix is accepted from whole-matrix reductions: a diagonal of
        NO_EDGE, no entry below NO_EDGE, at least one edge and none above
        delta. A matrix they refuse has a fault that _checked_delta, walking
        its edge arrays, names: the first in (source, target) order."""
        lag = np.asarray(lag)
        if lag.dtype.kind != "i":
            raise ConfigurationError(
                f"lag matrix must hold signed integers (NO_EDGE is -1), got {lag.dtype}")
        lag = np.array(lag, dtype=np.int64)
        if lag.ndim != 2 or lag.shape[0] != lag.shape[1]:
            raise ConfigurationError(f"lag matrix must be square, got shape {lag.shape}")
        _require_integers(delta=0 if delta is None else delta)
        top = int(lag.max(initial=NO_EDGE))
        if not (top >= 0 and (delta is None or top <= delta) and lag.min() >= NO_EDGE
                and lag.diagonal().max() == NO_EDGE):
            sources, targets = np.nonzero(lag.T != NO_EDGE)
            _checked_delta(lag.shape[0], sources, targets, lag[targets, sources], delta)
        return cls.__new__(cls)._init(lag, top if delta is None else int(delta))

    def _init(self, lag: np.ndarray, delta: int) -> DirectedGraph:
        mask = lag != NO_EDGE
        lag.flags.writeable = mask.flags.writeable = False
        self.lag, self.mask, self.delta = lag, mask, delta
        self.n, self.m = lag.shape[0], int(np.count_nonzero(mask))
        return self

    @cached_property
    def edges(self) -> tuple[Edge, ...]:  # sorted
        sources, targets = np.nonzero(self.mask.T)
        return tuple(zip(sources.tolist(), targets.tolist()))

    def adjacency(self) -> np.ndarray:
        return self.mask.astype(float)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return self.delta == other.delta and np.array_equal(self.lag, other.lag)

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, m={self.m}, delta={self.delta})"


@dataclass(frozen=True)
class GraphConfig:
    """Target structural parameters for the random-graph generators."""

    model: str = "gnm"
    n: int = 10
    d_e: float = 0.5
    r_e: float = 0.5
    delta: int = 0
    rewire_p: float = 0.1  # SW only; conventional small-world regime

    def __post_init__(self):
        if self.model not in GRAPH_MODELS:
            raise ConfigurationError(f"unknown graph model {self.model!r}")
        _require_integers(2, n=self.n)
        _require_integers(0, delta=self.delta)
        _require_reals("(0, 1]", d_e=self.d_e)
        _require_reals("[0, 1]", r_e=self.r_e, rewire_p=self.rewire_p)
        if self.m < 1:
            raise ConfigurationError("configuration yields zero edges")

    @property
    def m(self) -> int:
        """Directed edge count, d_e rounded onto the n(n-1) ordered pairs."""
        return _round_half_up(self.d_e * self.n * (self.n - 1))

    @property
    def reciprocal_pairs(self) -> int:
        """Number p of node pairs connected in both directions.

        Rounded from r_e * m / 2 and clamped so that 2p <= m always holds
        (r_e = 1 with an odd edge count can reciprocate at most m - 1 edges).
        """
        return min(_round_half_up(self.r_e * self.m / 2.0), self.m // 2)


def _oriented(
    n: int, first, second, both, delta: int, rng: np.random.Generator
) -> DirectedGraph:
    """Lag-0 graph on the node pairs (first[t], second[t]): both directions where
    both[t] is set; else one uniform draw per pair, in order, points it
    first -> second when below 1/2 and second -> first otherwise."""
    single = ~both
    forward = np.zeros(len(first), dtype=bool)
    forward[single] = rng.random(int(single.sum())) < 0.5
    lag = np.full((n, n), NO_EDGE)
    out, back = both | forward, both | (single & ~forward)
    lag[second[out], first[out]] = 0
    lag[first[back], second[back]] = 0
    return DirectedGraph.from_lag_matrix(lag, delta)


def _feasible_counts(config: GraphConfig) -> tuple[int, int, int]:
    """(n, m, p) of config. Its m edges with p reciprocal pairs occupy m - p
    node pairs; more than the n(n-1)/2 that n nodes have raises
    ConfigurationError."""
    n, m, p = config.n, config.m, config.reciprocal_pairs
    if m - p > n * (n - 1) // 2:
        raise ConfigurationError(
            f"infeasible targets: {m} edges with {p} reciprocal pairs need {m - p} "
            f"node pairs, more than the {n * (n - 1) // 2} of n={n} nodes")
    return n, m, p


def gen_gnm(config: GraphConfig, rng: np.random.Generator) -> DirectedGraph:
    """Directed G(n, m) sample with an exact reciprocal-pair count.

    Draws p unordered pairs (both directions added), then m - 2p further
    unordered pairs that each receive a single, uniformly chosen direction.
    """
    n, m, p = _feasible_counts(config)
    first, second = _pair_at(n, rng.choice(n * (n - 1) // 2, size=m - p, replace=False))
    return _oriented(n, first, second, np.arange(m - p) < p, config.delta, rng)


def _pair_at(n: int, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (first, second), first < second, at the given positions of
    the n(n-1)/2 pairs of range(n) in itertools.combinations order.

    Row i starts at s(i) = i (b - i) / 2 with b = 2n - 1, so the row of t is
    floor((b - sqrt(b^2 - 8t)) / 2). At a row start b^2 - 8t is an odd
    square and the root is exact; elsewhere it differs from every odd square
    by 8 or more, which keeps the root clear of the square's root by more
    than its rounding error while 4n^2 < 2^53, so the floor is exact.
    """
    b = 2 * n - 1
    first = ((b - np.sqrt(b * b - 8 * index)) // 2).astype(np.int64)
    return first, index - first * (b - first) // 2 + first + 1


def _ring_lattice_pairs(n: int, n_edges: int, rng: np.random.Generator) -> list[Edge]:
    """Undirected ring lattice with 1 <= n_edges <= n(n-1)/2 edges.

    Fills neighbor-distance classes 1, 2, ... outward; a partial final class is
    sampled uniformly, so leftover edges go to randomly chosen closest
    non-neighbors.
    """
    out: list[Edge] = []
    for d in itertools.count(1):  # classes 1 .. n // 2 hold every pair
        layer = sorted({tuple(sorted((i, (i + d) % n))) for i in range(n)})
        need = n_edges - len(out)
        if len(layer) > need:
            idx = rng.choice(len(layer), size=need, replace=False)
            layer = [layer[t] for t in sorted(idx.tolist())]
        out.extend(layer)
        if len(out) == n_edges:
            return out


def _rewire_small_world(
    backbone: list[Edge], n: int, rewire_p: float, rng: np.random.Generator
) -> list[Edge]:
    """Rewire each backbone edge independently with probability rewire_p.

    rewire_p = 0 skips the pass entirely so that SW output matches the RR
    output drawn from the same generator state.
    """
    if rewire_p == 0.0:
        return backbone
    present = set(backbone)
    for i, j in backbone:
        present.discard((i, j))
        if rng.random() < rewire_p:
            candidates = [
                w for w in range(n)
                if w != i and tuple(sorted((i, w))) not in present
            ]
            if candidates:
                w = candidates[rng.integers(0, len(candidates))]
                i, j = tuple(sorted((i, w)))
        present.add((i, j))
    return sorted(present)


def _preferential_attachment_pairs(
    n: int, n_edges: int, rng: np.random.Generator
) -> list[Edge]:
    """Undirected scale-free backbone with exactly n_edges edges.

    Seeds a complete graph, attaches remaining nodes sequentially with
    degree-proportional target choice, then places leftover edges between
    degree-proportionally sampled non-adjacent pairs.
    """
    if n_edges < n - 1:
        raise ConfigurationError(
            f"preferential attachment needs at least n-1 = {n - 1} edges, got {n_edges}")
    m_att = 1
    while True:
        seed_nodes = m_att + 2
        base = (m_att + 1) * (m_att + 2) // 2 + (n - seed_nodes) * (m_att + 1)
        if seed_nodes > n or base > n_edges:
            break
        m_att += 1
    seed_nodes = m_att + 1
    edges = set(itertools.combinations(range(seed_nodes), 2))
    degree = np.zeros(n)
    degree[:seed_nodes] = seed_nodes - 1
    for new in range(seed_nodes, n):
        targets: set[int] = set()
        while len(targets) < m_att:
            probs = degree[:new] / degree[:new].sum()
            t = int(rng.choice(new, p=probs))
            targets.add(t)
        for t in targets:
            edges.add((t, new))
            degree[t] += 1
            degree[new] += 1
    guard = 0
    while len(edges) < n_edges:
        probs = degree / degree.sum()
        u, v = rng.choice(n, size=2, p=probs)
        e = tuple(sorted((int(u), int(v))))
        if u != v and e not in edges:
            edges.add(e)
            degree[e[0]] += 1
            degree[e[1]] += 1
        guard += 1
        if guard > _MAX_LEFTOVER_DRAWS:
            raise ConfigurationError("preferential attachment failed to place edges")
    return sorted(edges)


def gen_backbone(config: GraphConfig, rng: np.random.Generator) -> DirectedGraph:
    """Sample a BA, RR, or SW graph hitting the directed edge and reciprocity targets.

    Builds an undirected backbone with m - p edges, upgrades p of them to
    bidirectional pairs, and orients the rest uniformly at random.
    """
    n, m, p = _feasible_counts(config)
    if config.model == "rr":
        backbone = _ring_lattice_pairs(n, m - p, rng)
    elif config.model == "sw":
        backbone = _ring_lattice_pairs(n, m - p, rng)
        backbone = _rewire_small_world(backbone, n, config.rewire_p, rng)
    elif config.model == "ba":
        backbone = _preferential_attachment_pairs(n, m - p, rng)
    else:
        raise ConfigurationError(f"model {config.model!r} has no backbone generator")
    both = np.zeros(len(backbone), dtype=bool)
    if p:
        both[rng.choice(len(backbone), size=p, replace=False)] = True
    first, second = np.array(backbone).T
    return _oriented(n, first, second, both, config.delta, rng)


def gen_graph(config: GraphConfig, rng: np.random.Generator) -> DirectedGraph:
    """Dispatch to the generator for config.model (er is an alias of gnm)."""
    if config.model in ("gnm", "er"):
        return gen_gnm(config, rng)
    return gen_backbone(config, rng)


def gen_graph_non_nilpotent(config: GraphConfig, rng: np.random.Generator) -> DirectedGraph:
    """Sample from config, rejecting nilpotent adjacency matrices."""
    for _ in range(_MAX_NILPOTENT_DRAWS):
        g = gen_graph(config, rng)
        if not is_nilpotent(g):
            return g
    raise ConfigurationError(
        f"no non-nilpotent sample within {_MAX_NILPOTENT_DRAWS} attempts for {config}"
    )


def assign_lags(g: DirectedGraph, delta: int, rng: np.random.Generator) -> DirectedGraph:
    """Assign each edge an independent lag uniform on {0, ..., delta}.

    At delta = 0 nothing is drawn, and a graph of delta 0 is returned itself."""
    _require_integers(0, delta=delta)
    if not delta and not g.delta:  # every lag is 0 already
        return g
    lag = np.where(g.mask, 0, NO_EDGE)
    if delta:  # one draw per edge, in (source, target) order
        lag.T[g.mask.T] = rng.integers(0, delta + 1, size=g.m)
    return DirectedGraph.from_lag_matrix(lag, delta)


def is_nilpotent(g: DirectedGraph) -> bool:
    """True iff the boolean adjacency to the n-th power vanishes (no directed cycle)."""
    return _pattern_nilpotent(g.mask)


def normalize_adjacency(g: DirectedGraph) -> tuple[np.ndarray, list[np.ndarray]]:
    """Scale the adjacency to unit spectral radius and split it by edge lag.

    Returns (A / rho, [A1, ..., Ap]) where p = max lag + 1 and Ak holds the
    entries of edges with lag k - 1. The per-lag matrices sum to A / rho
    exactly. Raises NilpotentGraphError when rho = 0 so callers can resample.
    """
    a = g.adjacency()
    rho = spectral_radius(a)
    if rho == 0.0:
        raise NilpotentGraphError("adjacency matrix is nilpotent")
    return a / rho, [(g.lag == k) / rho for k in range(g.lag.max() + 1)]


def gen_shooting_star(n: int, hub_degree: int) -> DirectedGraph:
    """A star joined to a path by one edge, all edges bidirectional with lag 0.

    Node 0 is the hub with hub_degree - 1 leaves; the remaining n - hub_degree
    nodes form a path whose first node connects to the hub, so the hub ends up
    with degree hub_degree. The result is a tree on n nodes.
    """
    _require_integers(n=n, hub_degree=hub_degree)
    if not 2 <= hub_degree <= n - 1:
        raise ConfigurationError(
            f"hub degree must lie in [2, n-1] = [2, {n - 1}], got {hub_degree}"
        )
    pairs = [(0, leaf) for leaf in range(1, hub_degree)]
    path = list(range(hub_degree, n))
    pairs.append((0, path[0]))
    pairs.extend(zip(path, path[1:]))
    edges = [(u, v) for u, v in pairs] + [(v, u) for u, v in pairs]
    return DirectedGraph(n, tuple(edges))


def anticlustering(g: DirectedGraph) -> tuple[np.ndarray, float]:
    """Per-node k_i * (1 - c_i) on the undirected projection, and its mean.

    k_i counts distinct neighbors in either direction; c_i is the local
    clustering coefficient (0 when k_i < 2), from U = A | A^T: k = U 1, and the
    neighbors of node i share (U^3)_ii / 2 links. High values mark
    high-degree, low-clustering nodes.
    """
    u = (g.mask | g.mask.T).astype(float)
    k = u.sum(axis=1)
    links = ((u @ u) * u).sum(axis=1) / 2.0
    c = np.divide(links, k * (k - 1) / 2, out=np.zeros(g.n), where=k >= 2)
    values = k * (1.0 - c)
    return values, float(values.mean())


def graph_metrics(g: DirectedGraph) -> tuple[float, float]:
    """(edge density, edge reciprocity) of a directed graph."""
    reciprocated = int(np.count_nonzero(g.mask & g.mask.T))
    return g.m / (g.n * (g.n - 1)), reciprocated / g.m


def save_edge_list(g: DirectedGraph, path: str) -> None:
    """Write 'n m delta' then one 'source target lag' line per edge."""
    edges = np.column_stack([*np.nonzero(g.mask.T), g.lag.T[g.mask.T]])  # sorted
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.m} {g.delta}\n")
        np.savetxt(fh, edges, fmt="%d")


def load_edge_list(path: str) -> DirectedGraph:
    """Parse an edge-list file; a line that is no valid edge, or repeats one, raises
    FileFormatError."""
    (lineno, header), rows = _data_lines(path, "empty edge-list file")
    try:
        n, m, delta = (int(tok) for tok in header.split())
    except ValueError as exc:
        raise FileFormatError(f"{path}:{lineno}: bad header {header!r}") from exc
    lags = {}
    for (lineno, _), (u, v, lag) in zip(rows, _data_table(path, rows, m, 3, int).tolist()):
        if (u, v) in lags:
            raise FileFormatError(f"{path}:{lineno}: repeated edge ({u}, {v})")
        lags[(u, v)] = lag
    try:  # the constructor names a self-loop, an endpoint or a lag out of range
        return DirectedGraph(n, list(lags), lags, delta=delta)
    except ConfigurationError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
