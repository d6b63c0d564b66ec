"""Johnson graphs and their walk spectra.

Vertices of J(N, R) are the R-element subsets of an N-element ground set,
adjacent when they differ by swapping one element.  The degree-normalized
adjacency operator has second-largest eigenvalue 1 - N/(R(N-R)), so the
classical spectral gap is delta = N/(R(N-R)).

The quantum walk operator acts on the directed-edge space spanned by |x>|y>
for adjacent x, y.  With a_x the uniform edge bundle leaving x and b_x the
bundle entering x, W = Ref_B . Ref_A where Ref_A reflects about span{a_x} and
Ref_B about span{b_x}.  W is the identity off span(A u B), so eigenphases are
computed on that subspace only; the premise checked downstream is that the
smallest nonzero phase is at least sqrt(delta).

No E x V matrix is formed.  One edge list, the ordered pairs of R-subsets
that share R - 1 points, serves both spectra: the adjacency P is one
indexed assignment, and one eigh of P gives the basis of span(A u B).  Each
eigenvector u of P, of eigenvalue lambda, gives the pair of unit vectors
(A u +- B u) / sqrt(2(1 +- lambda)), which W maps to itself (Szegedy;
Magniez-Nayak-Roland-Santha); a vector whose squared norm is below 1e-9 of
the largest, at lambda = +-1, is dropped.  The reflections act on the edge
space in O(E) per basis vector, the form in which Magniez-Nayak-Roland-
Santha apply W.  The basis vectors pass through them in panels of
_PANEL_COLUMNS, and each image is read back only in its own pair, after a
check that it leaves no weight outside it.  So W's phases are measured on
the edge space from one 2 x 2 block per eigenvector, the working set is one
E x _PANEL_COLUMNS panel besides the V x V P and its eigenvectors, and no
2V x 2V or rank x rank array is formed.

The vertex ordinals are positions in itertools.combinations' order, and the
edge list reads adjacency off the subsets' membership matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import CapacityError, ParameterError, ValidationError
from .oracle import require_int

_MAX_VERTICES = 5000
_MAX_EDGES = 20_000
_PHASE_ZERO_TOL = 1e-6
_PI_FOLD_TOL = 1e-9
_GRAM_RANK_TOL = 1e-9
_PANEL_COLUMNS = 32


@dataclass(frozen=True)
class JohnsonGraph:
    """J(N, R) over an explicit ground set of domain points."""

    ground_set: Tuple[int, ...]
    subset_size: int

    def __post_init__(self) -> None:
        pts = tuple(sorted(set(self.ground_set)))
        if len(pts) != len(self.ground_set):
            raise ParameterError(f"ground set repeats a point: {self.ground_set}")
        if pts != tuple(self.ground_set):
            object.__setattr__(self, "ground_set", pts)
        _check_subset_size(len(pts), self.subset_size)

    @property
    def ground_size(self) -> int:
        return len(self.ground_set)

    @property
    def degree(self) -> int:
        return self.subset_size * (self.ground_size - self.subset_size)

    @property
    def vertex_count(self) -> int:
        return math.comb(self.ground_size, self.subset_size)


def _check_subset_size(ground_size: int, subset_size: int) -> None:
    require_int(N=ground_size, R=subset_size)
    if not (0 < subset_size < ground_size):
        raise ParameterError(f"need 0 < R < N, got R={subset_size}, N={ground_size}")


def closed_form_gap(ground_size: int, subset_size: int) -> float:
    """J(N, R)'s spectral gap N / (R (N - R)), for 0 < R < N."""
    _check_subset_size(ground_size, subset_size)
    return ground_size / (subset_size * (ground_size - subset_size))


def _check_vertex_cap(graph: JohnsonGraph) -> None:
    count = graph.vertex_count
    if count > _MAX_VERTICES:
        raise CapacityError(f"{count} vertices exceeds dense solver cap {_MAX_VERTICES}")


def _edge_list(graph: JohnsonGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Directed edges of J(N, R) as (src, dst) arrays over vertex ordinals.

    Ordinals are positions in itertools.combinations' order, and two
    R-subsets are adjacent when they share R - 1 points: the edges are the
    nonzeros of member @ member.T == R - 1, member the V x N membership
    matrix, so they are grouped by source, each vertex's d out-edges
    contiguous and its targets ascending.  Every overlap is at most R, so
    the float product is exact.
    """
    n, r = graph.ground_size, graph.subset_size
    combos = np.array(list(itertools.combinations(range(n), r)))
    member = np.zeros((len(combos), n))
    member[np.arange(len(combos))[:, None], combos] = 1.0
    return np.nonzero(member @ member.T == r - 1)


def _transition_matrix(graph: JohnsonGraph, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The degree-normalized adjacency P as a dense V x V array."""
    transition = np.zeros((graph.vertex_count, graph.vertex_count))
    transition[src, dst] = 1.0 / graph.degree
    return transition


def _gap(transition: np.ndarray) -> float:
    return float(1.0 - np.linalg.eigvalsh(transition)[-2])


def spectral_gap(graph: JohnsonGraph) -> float:
    """Eigensolved gap 1 - lambda_2 of the degree-normalized adjacency.

    lambda_2 is the second-largest eigenvalue counted with multiplicity and
    with sign.  Dense solve, refused above _MAX_VERTICES vertices.
    """
    _check_vertex_cap(graph)
    return _gap(_transition_matrix(graph, *_edge_list(graph)))


@dataclass(frozen=True)
class WalkSpectrum:
    """Eigenphase summary of the edge-space walk operator.

    `eigenphases` are sorted and lie in (-pi, pi]: a phase within
    _PI_FOLD_TOL of -pi is reported as pi.
    """

    delta: float
    phase_gap: float
    eigenphases: Tuple[float, ...]


def walk_operator_spectrum(graph: JohnsonGraph) -> WalkSpectrum:
    """Eigenphases of W = Ref_B . Ref_A on the directed edge space.

    The bundles a_x (edges leaving x) and b_x (edges entering x) are the
    columns of A and B, each E x V with entries 1/sqrt(d), and P = A^T B is
    the degree-normalized adjacency, which must be exactly symmetric.  One
    eigh of P gives eigenpairs (lambda_j, u_j) and, for each j and sign s,
    the unit vector e_js = (A u_j + s B u_j) / sqrt(2(1 + s lambda_j)) of
    span(A u B).  These are orthonormal, and a column is dropped when its
    squared norm 2(1 + s lambda_j) is below _GRAM_RANK_TOL times the
    largest, which happens only at lambda = +-1 (lambda = -1 only for
    J(2, 1)); the others are at least 2 min(delta, 1 - 1/max(R, N-R)).

    The basis goes through the reflections _PANEL_COLUMNS columns at a time,
    each panel held as an E x _PANEL_COLUMNS array, and both reflections act
    on the edge space in O(E) per column: A^T Y is a sum over each vertex's d
    contiguous out-edges, B^T Y the same sum after one stable sort of the
    edges by target, and A X a row gather.  Each image W e_js is read in the
    basis through u^T A^T W e_js +- u^T B^T W e_js.  W maps span{e_j+, e_j-}
    to itself (Szegedy), so every coordinate outside the column's own pair
    must be below 1e-9, else ValidationError.  The kept coordinates form one
    2 x 2 block per j, or a 1 x 1 block where one column was dropped, and W
    is the identity off span(A u B), so the blocks' eigenvalues give every
    nonzero phase.  The phases are measured on W, not derived from lambda;
    P's eigenvectors only choose the basis.  Besides the edge list, P and
    its eigenvectors, the one E x _PANEL_COLUMNS panel sets the memory.
    """
    v_count = graph.vertex_count
    d = graph.degree
    if v_count * d > _MAX_EDGES:
        raise CapacityError(
            f"edge space of size {v_count * d} exceeds cap {_MAX_EDGES}"
        )
    _check_vertex_cap(graph)
    src, dst = _edge_list(graph)
    transition = _transition_matrix(graph, src, dst)
    if not np.array_equal(transition, transition.T):
        raise ValidationError("transition matrix is not symmetric")
    values, vectors = np.linalg.eigh(transition)
    by_target = np.argsort(dst, kind="stable")
    amp = 1.0 / math.sqrt(d)

    def out_sums(block: np.ndarray) -> np.ndarray:      # A^T . block
        return amp * block.reshape(v_count, d, -1).sum(axis=1)

    def in_sums(block: np.ndarray) -> np.ndarray:       # B^T . block
        return amp * block[by_target].reshape(v_count, d, -1).sum(axis=1)

    def reflect(block: np.ndarray, sums: np.ndarray, ends: np.ndarray) -> np.ndarray:
        # 2 M M^T block - block, given sums = M^T block and M's vertex per edge
        out = (2.0 * amp * sums)[ends]
        out -= block
        return out

    # row 0 of each (2, V) table is the sign +, row 1 the sign -
    norms = 2.0 * (1.0 + np.stack([values, -values]))
    keep = norms >= _GRAM_RANK_TOL * norms.max()
    scale = np.zeros_like(norms)
    scale[keep] = 1.0 / np.sqrt(norms[keep])
    signs, pairs = np.nonzero(keep)
    # blocks[j, t, s] = <e_jt | W e_js>
    blocks = np.zeros((v_count, 2, 2))
    for start in range(0, len(pairs), _PANEL_COLUMNS):
        panel = slice(start, start + _PANEL_COLUMNS)
        sign, pair = signs[panel], pairs[panel]
        columns = np.arange(len(pair))
        chosen = vectors[:, pair] * (amp * scale[sign, pair])
        block = chosen[src]
        block += (chosen * (1.0 - 2.0 * sign))[dst]
        block = reflect(block, out_sums(block), src)   # Ref_A
        block = reflect(block, in_sums(block), dst)    # Ref_B
        out = vectors.T @ out_sums(block)
        into = vectors.T @ in_sums(block)
        coords = np.stack([out + into, out - into]) * scale[:, :, None]
        blocks[pair, :, sign] = coords[:, pair, columns].T
        coords[:, pair, columns] = 0.0
        if np.max(np.abs(coords)) > 1e-9:
            raise ValidationError("walk operator leaves a pair of P's eigenvectors")
    both = keep.all(axis=0)
    one_sign, one_pair = np.nonzero(keep & ~both)
    eigenvalues = np.concatenate([
        np.linalg.eigvals(blocks[both]).ravel(),
        blocks[one_pair, one_sign, one_sign],
    ])
    if np.max(np.abs(np.abs(eigenvalues) - 1.0)) > 1e-8:
        raise ValidationError("walk block lost unitarity beyond tolerance")
    phases = np.angle(eigenvalues)
    phases[phases <= -math.pi + _PI_FOLD_TOL] = math.pi
    nonzero = np.abs(phases) > _PHASE_ZERO_TOL
    phase_gap = float(np.min(np.abs(phases[nonzero]))) if np.any(nonzero) else math.pi
    return WalkSpectrum(
        delta=float(1.0 - values[-2]),
        phase_gap=phase_gap,
        eigenphases=tuple(float(p) for p in np.sort(phases)),
    )
