"""Tests for the swap graph layer: gaps, walk spectrum, vertex ground truth."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from chainwalk import johnson
from chainwalk.errors import CapacityError, DomainError, ParameterError, ValidationError
from chainwalk.oracle import (
    CollisionTable,
    FunctionTable,
    Params,
    restrict,
)
from chainwalk.johnson import (
    JohnsonGraph,
    _edge_list,
    closed_form_gap,
    spectral_gap,
    walk_operator_spectrum,
)
from reference import neighbors, vertex_data, vertices


def test_graph_validation():
    g = JohnsonGraph(ground_set=(3, 1, 2, 0), subset_size=2)
    assert g.ground_set == (0, 1, 2, 3)
    assert g.ground_size == 4
    assert g.degree == 4
    assert g.vertex_count == 6
    with pytest.raises(ParameterError):
        JohnsonGraph(ground_set=(0, 1, 2), subset_size=3)
    with pytest.raises(ParameterError):
        JohnsonGraph(ground_set=(0, 1, 2), subset_size=0)


def test_neighbors_degree_and_symmetry():
    g = JohnsonGraph(ground_set=tuple(range(6)), subset_size=2)
    all_v = list(vertices(g))
    assert len(all_v) == 15
    for v in all_v:
        nb = neighbors(g, v)
        assert len(nb) == g.degree
        assert len(set(nb)) == len(nb)
        for w in nb:
            # one swap away: symmetric difference has two elements
            assert len(set(v) ^ set(w)) == 2
            assert v in neighbors(g, w)
    with pytest.raises(ParameterError):
        neighbors(g, (0, 9))


def test_edge_list_follows_neighbors():
    for n, r in [(2, 1), (5, 2), (7, 4), (9, 3)]:
        g = JohnsonGraph(ground_set=tuple(range(10, 10 + 3 * n, 3)), subset_size=r)
        verts = list(vertices(g))
        index = {v: i for i, v in enumerate(verts)}
        src, dst = _edge_list(g)
        assert src.tolist() == [index[v] for v in verts for _ in range(g.degree)]
        assert dst.tolist() == [
            ordinal for v in verts for ordinal in sorted(index[w] for w in neighbors(g, v))
        ]


def test_closed_form_gap_values():
    assert closed_form_gap(4, 2) == pytest.approx(1.0, abs=1e-15)
    assert closed_form_gap(5, 2) == pytest.approx(5.0 / 6.0, abs=1e-15)
    for n in range(2, 9):
        assert closed_form_gap(n, 1) == pytest.approx(n / (n - 1), abs=1e-15)


@pytest.mark.parametrize("n, r", [(4, 0), (4, 4), (4, 5)])
def test_closed_form_gap_refuses_what_the_graph_refuses(n, r):
    """(4, 0) and (4, 4) divided by zero and (4, 5) gave -0.8; each raises
    JohnsonGraph's ParameterError."""
    for call in (lambda: closed_form_gap(n, r),
                 lambda: JohnsonGraph(ground_set=tuple(range(n)), subset_size=r)):
        with pytest.raises(ParameterError, match=f"need 0 < R < N, got R={r}, N={n}"):
            call()


def test_spectral_gap_matches_closed_form():
    for n, r in [(4, 2), (5, 2), (6, 3), (7, 2), (8, 4), (9, 3)]:
        g = JohnsonGraph(ground_set=tuple(range(n)), subset_size=r)
        assert spectral_gap(g) == pytest.approx(closed_form_gap(n, r), abs=1e-9)


def test_spectral_gap_capacity_cap():
    # C(15, 7) = 6,435 vertices, above the dense solver's 5,000
    g = JohnsonGraph(ground_set=tuple(range(15)), subset_size=7)
    with pytest.raises(CapacityError):
        spectral_gap(g)


def test_walk_spectrum_phase_gap_bound():
    for n, r in [(4, 2), (5, 2), (6, 2), (6, 3)]:
        g = JohnsonGraph(ground_set=tuple(range(n)), subset_size=r)
        spec = walk_operator_spectrum(g)
        delta = closed_form_gap(n, r)
        assert spec.delta == pytest.approx(delta, abs=1e-9)
        assert spec.phase_gap >= math.sqrt(delta) - 1e-9


def _dense_walk_reference(graph):
    """Rank, phases and phase gap of W from dense E x V bundles and an SVD basis."""
    verts = list(vertices(graph))
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[v], index[w]) for v in verts for w in neighbors(graph, v)]
    amp = 1.0 / math.sqrt(graph.degree)
    a_mat = np.zeros((len(edges), len(verts)))
    b_mat = np.zeros((len(edges), len(verts)))
    for e, (i, j) in enumerate(edges):
        a_mat[e, i] = amp
        b_mat[e, j] = amp
    u, singular, _ = np.linalg.svd(np.hstack([a_mat, b_mat]), full_matrices=False)
    basis = u[:, :int(np.sum(singular > 1e-9 * singular[0]))]

    def reflect(block, bundle):
        return 2.0 * bundle @ (bundle.T @ block) - block

    phases = np.angle(np.linalg.eigvals(basis.T @ reflect(reflect(basis, a_mat), b_mat)))
    nonzero = np.abs(phases) > 1e-6
    gap = float(np.min(np.abs(phases[nonzero]))) if np.any(nonzero) else math.pi
    return basis.shape[1], phases, gap


def _fold_pi(phases):
    """Phases within 1e-9 of -pi moved to pi, sorted."""
    phases = np.array(phases, dtype=float)
    phases[phases <= -math.pi + 1e-9] = math.pi
    return np.sort(phases)


# criterion 3's graphs with N <= 9, J(2, 1) among them, plus three with N = 10;
# J(10, 4) and J(10, 6) have 150 eigenphases each at +-pi
_DIFFERENTIAL_GRAPHS = [
    (n, r) for n in range(2, 10) for r in range(1, n) if math.comb(n, r) <= 300
] + [(10, 4), (10, 5), (10, 6)]


@pytest.mark.parametrize("n, r", _DIFFERENTIAL_GRAPHS)
def test_walk_spectrum_matches_dense_reference(n, r):
    graph = JohnsonGraph(ground_set=tuple(range(n)), subset_size=r)
    rank, phases, gap = _dense_walk_reference(graph)
    spec = walk_operator_spectrum(graph)
    assert len(spec.eigenphases) == rank
    assert list(spec.eigenphases) == sorted(spec.eigenphases)
    assert -math.pi < spec.eigenphases[0] and spec.eigenphases[-1] <= math.pi
    assert np.max(np.abs(_fold_pi(spec.eigenphases) - _fold_pi(phases))) <= 1e-10
    assert abs(spec.phase_gap - gap) <= 1e-12


def test_walk_spectrum_rejects_a_nonsymmetric_transition(monkeypatch):
    """Swapping the targets of edges 0 and 37 of J(6, 2) leaves P
    nonsymmetric, which eigh, reading one triangle, would not see."""
    edge_list = johnson._edge_list

    def swapped(graph):
        src, dst = edge_list(graph)
        dst = dst.copy()
        dst[[0, 37]] = dst[[37, 0]]
        return src, dst

    monkeypatch.setattr(johnson, "_edge_list", swapped)
    graph = JohnsonGraph(ground_set=tuple(range(6)), subset_size=2)
    with pytest.raises(ValidationError, match="not symmetric"):
        walk_operator_spectrum(graph)


@pytest.mark.parametrize("n, r", [(6, 2), (10, 5)])
def test_walk_spectrum_rejects_a_transition_off_the_edges(monkeypatch, n, r):
    """P still symmetric but 1e-6 off A^T B at one edge pair: its
    eigenvectors no longer split W into 2 x 2 blocks."""
    transition_matrix = johnson._transition_matrix

    def perturbed(graph, src, dst):
        transition = transition_matrix(graph, src, dst)
        transition[0, 1] += 1e-6
        transition[1, 0] += 1e-6
        return transition

    monkeypatch.setattr(johnson, "_transition_matrix", perturbed)
    graph = JohnsonGraph(ground_set=tuple(range(n)), subset_size=r)
    with pytest.raises(ValidationError, match="leaves a pair"):
        walk_operator_spectrum(graph)


def test_walk_spectrum_traced_peak():
    """The reflections run on fixed-width column panels, so J(10, 5)'s
    6,300 x 503 edge-space basis is never held whole (about 25 MB a copy),
    and the basis comes from P's 252 x 252 eigenvectors, so no 504 x 504
    Gram matrix or 503 x 503 walk block is formed: the peak is about two
    6,300 x 32 panels (3.1 MiB) besides P and its eigenvectors."""
    graph = JohnsonGraph(ground_set=tuple(range(10)), subset_size=5)
    walk_operator_spectrum(graph)   # a warm-up call, untraced
    tracemalloc.start()
    try:
        walk_operator_spectrum(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_walk_spectrum_edge_cap():
    # C(12, 6) * 36 = 33,264 directed edges, above the cap of 20,000
    g = JohnsonGraph(ground_set=tuple(range(12)), subset_size=6)
    with pytest.raises(CapacityError):
        walk_operator_spectrum(g)


def _example_restriction():
    params = Params(n=3, m=3, k=1)
    fn = FunctionTable(params, [0, 0, 1, 1, 2, 2, 3, 4])
    table = CollisionTable().insert(fn, 2, (4, 5))
    return fn, restrict(fn, table)


def test_vertex_data_matches_brute_force():
    fn, restriction = _example_restriction()
    pts = restriction.domain_points
    for subset in itertools.combinations(pts, 3):
        data = vertex_data(restriction, subset)
        assert data.subset == subset
        assert data.images == tuple((x, fn.value(x)) for x in subset)
        expected = {}
        for x in subset:
            expected.setdefault(fn.value(x), []).append(x)
        want = tuple(
            (img, tuple(pre)) for img, pre in sorted(expected.items()) if len(pre) >= 2
        )
        assert data.multicollisions == want
        assert data.count == len(want)


def test_vertex_data_rejects_bad_subsets():
    _, restriction = _example_restriction()
    with pytest.raises(ParameterError):
        vertex_data(restriction, (0, 0, 1))
    with pytest.raises(DomainError):
        vertex_data(restriction, (0, 1, 4))
