"""Reference constructions the unit tests check the package against.

No run reads these, so they live beside the tests rather than in
src/chainwalk: the explicit Johnson graph, the per-vertex collision data a
FamilyIndex's tables are checked against, the uniform vector state, the
padded-register token decoder, a count index's histogram, the vector a
count-class state stands for, the exact occupancy law that the sampled
collision counts of stats.py are checked against, and the union bound behind
criterion 5's 560/65536.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Tuple


from chainwalk.errors import DomainError, ParameterError, ValidationError
from chainwalk.extraction import _DUMMY_TAG, _TUPLE_TAG
from chainwalk.johnson import JohnsonGraph
from chainwalk.law import CountIndex
from chainwalk.levels import Levels
from chainwalk.oracle import RestrictedFunction, require_int
from chainwalk.statevector import BasisKey, State


def vertices(graph: JohnsonGraph) -> Iterator[Tuple[int, ...]]:
    """All vertices in lexicographic order, as sorted tuples."""
    return itertools.combinations(graph.ground_set, graph.subset_size)


def neighbors(graph: JohnsonGraph, vertex: Iterable[int]) -> list:
    """The R(N-R) vertices reachable by one element swap."""
    v = tuple(sorted(vertex))
    inside = set(v)
    if len(v) != graph.subset_size or not inside.issubset(graph.ground_set):
        raise ParameterError(f"not a vertex of this graph: {v}")
    outside = [p for p in graph.ground_set if p not in inside]
    out = []
    for drop in v:
        kept = [p for p in v if p != drop]
        for add in outside:
            out.append(tuple(sorted(kept + [add])))
    return out


@dataclass(frozen=True)
class VertexData:
    """Images and in-vertex multicollision tuples of one subset."""

    subset: Tuple[int, ...]
    images: Tuple[Tuple[int, int], ...]
    multicollisions: Tuple[Tuple[int, Tuple[int, ...]], ...]

    @property
    def count(self) -> int:
        return len(self.multicollisions)


def vertex_data(restriction: RestrictedFunction, subset: Iterable[int]) -> VertexData:
    """Ground-truth view of one vertex under the restricted function.

    The subset must avoid the exclusion closure.  A multicollision is an image
    with at least two preimages inside the subset; each is one tuple carrying
    every in-subset preimage, listed in image order.
    """
    raw = tuple(int(p) for p in subset)
    pts = tuple(sorted(set(raw)))
    if len(pts) != len(raw):
        raise ParameterError("subset has repeated points")
    allowed = set(restriction.domain_points)
    groups: dict[int, list[int]] = {}
    images = []
    for x in pts:
        if x not in allowed:
            raise DomainError(f"point {x} excluded from restricted domain")
        y = restriction.base.value(x)
        images.append((x, y))
        groups.setdefault(y, []).append(x)
    multis = tuple(
        (image, tuple(sorted(pre)))
        for image, pre in sorted(groups.items())
        if len(pre) >= 2
    )
    return VertexData(subset=pts, images=tuple(images), multicollisions=multis)


def uniform_state(keys: Iterable[BasisKey]) -> State:
    """Equal positive amplitude on each distinct key, over the sorted keys."""
    ks = sorted(set(keys))
    if not ks:
        raise ValidationError("uniform state over empty key set")
    return State(dict.fromkeys(ks, 1.0 / math.sqrt(len(ks))))


def parse_token(token: bytes):
    """Decode a register value into ("tuple", image, preimages) or ("dummy", i)."""
    if token[:1] == _DUMMY_TAG and len(token) == 3:
        return ("dummy", struct.unpack(">H", token[1:])[0])
    if token[:1] == _TUPLE_TAG and len(token) >= 6:
        image, count = struct.unpack(">IB", token[1:6])
        if len(token) == 6 + 4 * count:
            pres = struct.unpack(f">{count}I", token[6:])
            return ("tuple", image, tuple(pres))
    raise ValidationError(f"unrecognized extraction token: {token!r}")


def histogram(index: CountIndex) -> Dict[int, int]:
    """The index's class sizes, {count: vertices}, for the counts held."""
    return {c: size for c, size in enumerate(index.sizes) if size}


def as_state(levels: Levels) -> State:
    """A class state as the vector it stands for, with a positive sign, over
    its index's vertices in key order (a FamilyIndex's: a LawIndex holds no
    vertices to lay it over)."""
    amp = 1.0 / math.sqrt(levels.support())
    return State({key: amp for key, held in levels.index.tuples.items()
                  if len(held) in levels.counts})


def occupancy_law(big_r: int, bins: int) -> List[Fraction]:
    """Exact P(Z = z) for z = 0 .. R // 2, as Fractions, where Z counts the
    bins hit twice or more by R uniform draws into `bins` bins.

    A draw with z bins hit twice or more and j hit once picks those bins
    (C(M, z) C(M - z, j)), the j single draws and their bins (C(R, j) j!),
    and splits the other R - j draws into z blocks of two or more, one per
    bin (S2(R - j, z) z!).  S2(n, k), the partitions of n into k blocks of
    size at least two, obeys S2(n, k) = k S2(n-1, k) + (n-1) S2(n-2, k-1).
    Needs integers M > 0 and R >= 0.
    """
    require_int(big_r=big_r, bins=bins)
    if bins <= 0 or big_r < 0:
        raise ParameterError(f"need M > 0 and R >= 0, got R={big_r}, M={bins}")
    top = big_r // 2
    s2 = [[0] * (top + 1) for _ in range(big_r + 1)]
    s2[0][0] = 1
    for n in range(2, big_r + 1):
        for k in range(1, n // 2 + 1):
            s2[n][k] = k * s2[n - 1][k] + (n - 1) * s2[n - 2][k - 1]
    law = []
    for z in range(top + 1):
        ways = sum(
            math.comb(bins, z) * math.comb(bins - z, j) * math.comb(big_r, j)
            * math.factorial(j) * math.factorial(z) * s2[big_r - j][z]
            for j in range(big_r - 2 * z + 1)
        )
        law.append(Fraction(ways, bins**big_r))
    return law


def multicollision_size_bound(n: int, m: int, ell: int) -> float:
    """Union bound on the probability of any ell-fold multicollision.

    Computes 2^(-m(ell-1)) * C(2^n, ell) in log space and only then
    exponentiates.  The value is reported verbatim even when it exceeds 1 and
    is vacuous as a probability.
    """
    require_int(n=n, m=m, ell=ell)
    if n < 1 or m < 1:
        raise ParameterError("n and m must be positive")
    if not (2 <= ell <= (1 << n)):
        raise ParameterError(f"need 2 <= ell <= 2^n, got ell={ell}")
    domain = 1 << n
    if ell <= 4096:
        # term-by-term sum: the lgamma difference lgamma(D+1) - lgamma(D-ell+1)
        # cancels catastrophically once ell/D drops below float resolution
        log2_choose = sum(math.log2(domain - i) for i in range(ell))
        log2_choose -= math.lgamma(ell + 1) / math.log(2.0)
    else:
        log2_choose = (
            math.lgamma(domain + 1)
            - math.lgamma(ell + 1)
            - math.lgamma(domain - ell + 1)
        ) / math.log(2.0)
    log2_bound = log2_choose - m * (ell - 1)
    if log2_bound > 1000.0:
        return math.inf
    return 2.0 ** log2_bound
