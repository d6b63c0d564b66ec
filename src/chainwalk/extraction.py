"""Dummy-padded extraction of multicollision tuples from vertex states.

A vertex superposition carries, per vertex, some number z of multicollision
tuples.  Measuring a tuple straight out of a uniform-over-tuples register
post-selects in favor of collision-rich vertices and the residual state stops
being uniform.  The fix implemented here pads every vertex to a fixed branch
count y: its z tuple branches plus dummy branches d_{z+1}..d_y, all at
relative amplitude 1/sqrt(y).  Measuring the padded register then either
yields a tuple (and the residual state is uniform over the shrunken vertex
family) or a dummy index i (and the residual state is uniform over the same
family with the count interval tightened to [x, i-1]).

`hop` moves a state that is uniform over a class of counts: it flips off the
class and measures a partition of the counts left.  Interval repair
(correct_interval) widens [x, i-1] back to [x, y] by a few hops.  A run does
both on count-class states (levels.py), a class of counts in place of a
vector; the vector versions here are the reference its differential tests
compare against.  What both paths decide on the same numbers is written
here once and read by both: repair's premises and its start and target
classes (repair_classes, over any law.CountIndex), the padding width y
(VertexFamily.padding_width) and the family a tuple outcome leaves
(VertexFamily.after_tuple).

Families are described by VertexFamily: a restricted function, a subset size,
and an inclusive count interval whose upper end may be unbounded.  FamilyIndex
holds a family's full vertex set as arrays over vertex ordinals (each subset
once, as a bit set of uint64 words over the positions of its domain, and its
count), so that class sizes, membership predicates, and diffusion axes are
exact.  A run reads none of this: its index is law.LawIndex, which answers
the count-level reads from the family's exact law, and FamilyIndex stays as
the acceptance API, the vector path's index and the reference the law index
is tested against.  FamilyIndex lists the domain's collision classes, the
images with two or more points, as bit sets too.  It takes its subsets from
johnson's lexicographic enumerator and counts each subset's classes met
twice or more off their bit sets, class by class.  After a tuple extraction
the shrunken family's index is built the same way, and each collapsed
vertex, less the tuple's points, is placed in it by its lexicographic rank
(johnson._lex_ordinals), with no byte key in between.  An index's Basis
is its vertex ordinals, with byte keys spelled out of the bit sets only when a
byte-key API reads them, so a family state is a vector over vertex ordinals,
and its predicates and labels (class_mask, by_count) are vectors over the
ordinals too.  A tuple is a vertex's bits in a class it meets twice or more,
read off on request, not kept; the classes are disjoint, so a tuple is its
bit set alone, and int64 rows (image, size, preimages) are spelled out only
for the distinct tuples.  The padded register is a V x y table of amplitudes
and integer labels over the support vertices, a dummy's index or its tuple's
rank in token order.  extract_once draws from those arrays by the collapse
rule that measure uses (statevector._collapse), building no State for the
register; pad_and_attach spells it in byte keys for callers that read keys.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

import numpy as np

from .amplify import MAX_TRANSITIONS, FlipStats, Want, flip
from .errors import (
    ContractViolationError,
    FlaggedInstanceError,
    ImpossibleTargetError,
    ParameterError,
    SimulationError,
    ValidationError,
)
from .johnson import _combinations, _lex_ordinals
from .law import CountIndex, family_total
from .oracle import RestrictedFunction, restrict
from .statevector import (
    Basis,
    BasisKey,
    State,
    _collapse,
    align,
    decode_subset,
    measure,
    subset_key,
)

if TYPE_CHECKING:
    from .levels import Levels

_TUPLE_TAG = b"t"
_DUMMY_TAG = b"d"
_UNIFORM_TOL = 1e-9


def tuple_token(image: int, preimages) -> bytes:
    """Serialized extraction-register value for one multicollision tuple."""
    pres = tuple(sorted(int(p) for p in preimages))
    if len(pres) < 2:
        raise ParameterError("a tuple token needs at least two preimages")
    if len(pres) > 255:
        raise ParameterError("tuple too large to serialize")
    if not (0 <= int(image) < 1 << 32 and 0 <= pres[0] and pres[-1] < 1 << 32):
        raise ParameterError("tuple image and preimages must lie in [0, 2**32)")
    body = struct.pack(">IB", int(image), len(pres))
    return _TUPLE_TAG + body + b"".join(struct.pack(">I", p) for p in pres)


def dummy_token(index: int) -> bytes:
    """Serialized extraction-register value for the dummy branch d_index."""
    if not (1 <= index < (1 << 16)):
        raise ParameterError(f"dummy index out of range: {index}")
    return _DUMMY_TAG + struct.pack(">H", index)


@dataclass(frozen=True)
class VertexFamily:
    """All subsets of a fixed size whose multicollision count lies in [lo, hi].

    hi = None means unbounded above.  Membership additionally requires the
    subset to avoid the restriction's exclusion closure, which is implied for
    subsets drawn from restriction.domain_points.
    """

    restriction: RestrictedFunction
    big_r: int
    lo: int
    hi: Optional[int]

    def __post_init__(self) -> None:
        if self.big_r < 0:
            raise ParameterError("subset size must be non-negative")
        if self.lo < 0:
            raise ParameterError("interval lower bound must be non-negative")
        if self.hi is not None and self.hi < self.lo:
            raise ParameterError(
                f"empty interval [{self.lo}, {self.hi}]"
            )

    def interval_label(self) -> str:
        top = "inf" if self.hi is None else str(self.hi)
        return f"[{self.lo},{top}]"

    def padding_width(self) -> int:
        """The padded register's width y = hi, which extraction needs finite
        and at least 1."""
        if self.hi is None:
            raise ParameterError(
                "extraction needs a finite upper bound; reframe the family first"
            )
        if self.hi < 1:
            raise ParameterError("cannot extract from a family with hi = 0")
        return self.hi

    def after_tuple(self, image: int, preimages: Tuple[int, ...]) -> "VertexFamily":
        """The family a tuple outcome leaves: the tuple recorded in the
        collision table, which carves its class out of the domain, R less
        the tuple's size, and each end of the interval one lower."""
        table = self.restriction.table.insert(self.restriction.base, image, preimages)
        return VertexFamily(
            restriction=restrict(self.restriction.base, table),
            big_r=self.big_r - len(preimages),
            lo=max(0, self.lo - 1),
            hi=self.hi - 1,
        )


def in_range(lo: int, hi: Optional[int]) -> Callable[[int], bool]:
    """The predicate lo <= count <= hi, with hi = None unbounded."""
    return lambda c: c >= lo and (hi is None or c <= hi)


def _bits(positions: np.ndarray) -> np.ndarray:
    """Each position's bit within its 64-bit word, as uint64."""
    return np.left_shift(np.uint64(1), (positions & 63).astype(np.uint64))


def _set_positions(sets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The set bits of a table of bit sets, as (row, position) pairs, row by
    row and ascending within a row."""
    bits = np.unpackbits(sets.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    return np.nonzero(bits)


def _subset_keys(masks: np.ndarray, domain: np.ndarray) -> List[BasisKey]:
    """subset_key of every bit set of a table over the positions of
    `domain`, through one buffer."""
    total = len(masks)
    # the domain ascends, so each row of points is sorted
    points = domain.take(_set_positions(masks)[1]).reshape(total, -1)
    width = points.shape[1]
    size = 2 + 4 * width
    buf = np.empty((total, size), dtype=np.uint8)
    buf[:, :2] = np.frombuffer(struct.pack(">H", width), dtype=np.uint8)
    buf[:, 2:] = points.astype(">u4").view(np.uint8).reshape(total, 4 * width)
    raw = buf.tobytes()
    return [raw[i:i + size] for i in range(0, total * size, size)]


def _row_tuple(row: List[int]) -> Tuple[int, Tuple[int, ...]]:
    """(image, preimages) of one row of FamilyIndex._tuple_rows."""
    return row[0], tuple(row[2:2 + row[1]])


def _collision_classes(images: np.ndarray, words: int) -> Tuple[np.ndarray, np.ndarray]:
    """The images that two or more positions of a domain map to, where
    position p maps to images[p], ascending, and the bit set of `words`
    words of each one's positions."""
    distinct, which, sizes = np.unique(images, return_inverse=True, return_counts=True)
    masks = np.zeros((len(distinct), words), dtype=np.uint64)
    positions = np.arange(len(images))
    np.bitwise_or.at(masks, (which, positions >> 6), _bits(positions))
    classes = np.flatnonzero(sizes >= 2)
    return distinct[classes], masks[classes]


def _two_or_more(sets: np.ndarray) -> np.ndarray:
    """Which bit sets, their words along the last axis, have two or more
    bits set: two in one word (x & (x - 1) clears the lowest bit of x), or
    bits in two words."""
    many = (sets & (sets - 1)).any(axis=-1)
    if sets.shape[-1] > 1:
        many |= np.count_nonzero(sets, axis=-1) >= 2
    return many


def _distinct_rows(table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a uint64 table and each row's index among them."""
    if table.shape[1] == 1:
        distinct, which = np.unique(table[:, 0], return_inverse=True)
        return distinct[:, None], which
    # np.unique(axis=0) sorts a structured view, several times slower
    order = np.lexsort(table.T)
    ranked = table.take(order, axis=0)
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    which = np.empty(len(table), dtype=np.intp)
    which[order] = np.cumsum(first) - 1
    return ranked[first], which


class FamilyIndex(CountIndex):
    """Exhaustive per-subset multicollision data for one (restriction, R).

    The index holds every R-subset of the restricted domain, so class sizes
    and count lookups are exact.  That exhaustive view is the desk-scale
    privilege that stands in for the quantum data structure.

    The data are arrays over vertex ordinals, the subsets in lexicographic
    order (so keys come out sorted).  Each subset is held once, as a bit set
    of W = ceil(N / 64) uint64 words over the N positions of the index's
    domain (a row of `_masks`, with `_domain` the point at each position),
    and its count as one int64 (`counts`).  The collision classes, the
    images with two or more domain points, are listed in image order as
    bit sets of their positions (`_class_images`, `_class_masks`).  A
    vertex holds a tuple of each class it meets in two or more positions,
    the tuple being its bits in that class; _held_tuples reads them off for
    the vertices of each request, and the index stores none.

    The index reads the bit sets of johnson._combinations and counts each
    vertex's classes met twice or more class by class off the bit sets.

    The basis spells its byte keys out of `_masks` only when a byte-key API
    first reads it (pad_and_attach, State.items, align
    from another basis).  Its key factory holds the masks and the domain,
    not the index, so an index is freed by reference counting alone.
    """

    def __init__(self, restriction: RestrictedFunction, big_r: int) -> None:
        self.restriction = restriction
        self.big_r = big_r
        self.total = family_total(len(restriction.domain_points), big_r)
        self._domain = np.asarray(restriction.domain_points, dtype=np.int64)
        images = restriction.base.values().take(self._domain)
        # the bit sets alone: the position table is freed here
        self._masks = _combinations(len(self._domain), big_r)[1]
        self._class_images, self._class_masks = _collision_classes(
            images, self._masks.shape[1]
        )
        self.counts = np.zeros(self.total, dtype=np.int64)
        for bits in self._class_masks:
            words = np.flatnonzero(bits)
            self.counts += _two_or_more(self._masks[:, words] & bits[words])
        self.basis = Basis(self.total, functools.partial(_subset_keys, self._masks, self._domain))
        # the class size |V_c| of every count c = 0..max_count
        self.sizes = np.bincount(self.counts).tolist()
        self._axis: Optional[State] = None

    def _held_tuples(self, ordinals: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The tuples of the vertices `ordinals`, vertex by vertex and in
        image order within a vertex: each one's vertex position in
        `ordinals`, its class, and its bit set."""
        sets = self._masks.take(ordinals, axis=0)[:, None, :] & self._class_masks
        owners, classes = np.nonzero(_two_or_more(sets))
        return owners, classes, sets[owners, classes]

    def _tuple_rows(self, classes: np.ndarray, sets: np.ndarray) -> np.ndarray:
        """The tuples of classes `classes` and bit sets `sets` as int64 rows
        (image, size, preimages padded with -1)."""
        owner, position = _set_positions(sets)
        sizes = np.bincount(owner, minlength=len(sets))
        rows = np.full((len(sets), 2 + self.big_r), -1, dtype=np.int64)
        rows[:, 0] = self._class_images.take(classes)
        rows[:, 1] = sizes
        place = np.arange(len(owner)) - (np.cumsum(sizes) - sizes).take(owner)
        rows[owner, 2 + place] = self._domain.take(position)
        return rows

    def tuple_holders(self, live: List[bool]) -> Tuple[List[tuple], List[List[int]]]:
        """law.LawIndex.tuple_holders read off the vertices: the tuples held
        by the vertices of the counts where `live` holds, in token order, as
        (image, preimages) pairs, and each one's holders among those
        vertices per count 0..max_count as lists."""
        ordinals = np.flatnonzero(np.asarray(live, dtype=bool)[self.counts])
        owners, ranks, found = ranked_tuples(self, ordinals)
        width = len(self.sizes)
        cells = ranks * width + self.counts.take(ordinals.take(owners))
        holders = np.bincount(cells, minlength=len(found) * width).reshape(len(found), width)
        return list(map(_row_tuple, found.tolist())), holders.tolist()

    def class_mask(self, lo: int, hi: Optional[int]) -> np.ndarray:
        """Boolean vector over ordinals: the vertices with count in [lo, hi]."""
        return self.by_count(in_range(lo, hi))

    def by_count(self, label: Callable[[int], object]) -> np.ndarray:
        """Vector over ordinals: label(count) of every vertex, with `label`
        called once per count 0..max_count."""
        return np.asarray(self.per_count(label))[self.counts]

    def axis_state(self) -> State:
        """Uniform superposition over the whole vertex set (diffusion axis)."""
        if self._axis is None:
            self._axis = State.over(
                self.basis, np.full(self.total, 1.0 / np.sqrt(self.total))
            )
        return self._axis

    def class_state(self, lo: int, hi: Optional[int]) -> State:
        """Uniform superposition over the class [lo, hi], over the index's basis."""
        mask = self.class_mask(lo, hi)
        size = int(np.count_nonzero(mask))
        if not size:
            raise ImpossibleTargetError(
                f"no vertices with count in [{lo}, {hi}]"
            )
        return State.over(self.basis, mask * (1.0 / np.sqrt(size)))


def check_uniform_class(state: State, family: VertexFamily, index: FamilyIndex) -> None:
    """Raise ValidationError unless the state is exactly uniform over the
    family's entire count class in `index`.

    Every support key must be a vertex whose count lies in the family's
    interval, and there must be as many keys as the class holds.  The
    support positions are distinct, so those two facts make it the whole
    class.
    """
    live = align(state, index.axis_state()).live
    counts = index.counts.take(live)
    if (
        len(live) != index.class_size(family.lo, family.hi)
        or counts.min() < family.lo
        or (family.hi is not None and counts.max() > family.hi)
    ):
        raise ValidationError(
            f"state support does not match family {family.interval_label()}"
        )
    target = 1.0 / math.sqrt(len(state))
    if np.any(np.abs(np.abs(state.vector[state.live]) - target) > _UNIFORM_TOL):
        raise ValidationError("state is not uniform over its support")


def _padded_register(state: State, index: FamilyIndex, y: int):
    """The padded register over the state's support vertices, unmaterialized.

    Entry r * y + c belongs to vertex ordinals[r]: its z tuples in image
    order, then d_{z+1}..d_y, each at the vertex's amplitude over sqrt(y).
    Returns (ordinals, the amplitude of each entry, the label of each entry,
    the distinct tuples as rows of FamilyIndex._tuple_rows).  Labels sort as
    the tokens do: d_i is i - 1, and the j-th tuple in (image, size,
    preimages) order y + j.  The last label is always present: every tuple
    label is, and without tuples every vertex holds d_y.  Dummies d_i with i
    at most every vertex's count are absent.
    """
    if y < 1:
        raise ParameterError("padding width y must be at least 1")
    state = align(state, index.axis_state())
    ordinals = state.live
    z = index.counts.take(ordinals)
    if z.max() > y:
        raise ContractViolationError(
            f"a vertex holds {z.max()} tuples, above the padding width {y}"
        )
    _, ranks, found = ranked_tuples(index, ordinals)
    labels = np.tile(np.arange(y), (len(ordinals), 1))
    labels[np.arange(y) < z[:, None]] = y + ranks
    amplitudes = np.repeat(state.vector.take(ordinals) * (1.0 / math.sqrt(y)), y)
    return ordinals, amplitudes, labels.ravel(), found


def ranked_tuples(index: FamilyIndex, ordinals: np.ndarray):
    """The tuples the vertices `ordinals` hold, ranked in token order.

    Returns each held instance's vertex position in `ordinals` and its
    tuple's rank, instances in FamilyIndex._held_tuples order, and the
    distinct tuples as rows of FamilyIndex._tuple_rows in rank order.
    """
    owners, classes, sets = index._held_tuples(ordinals)
    # the classes are disjoint, so a tuple is its bit set alone; only the
    # distinct ones are spelled out as rows, each from any of its holders
    distinct, which = _distinct_rows(sets)
    sample = np.empty(len(distinct), dtype=np.intp)
    sample[which] = np.arange(len(which))
    found = index._tuple_rows(classes.take(sample), distinct)
    # rows agreeing on (image, size) have the same -1 padding, so this
    # lexicographic order is tuple_token's byte order
    order = np.lexsort(found.T[::-1])
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return owners, rank[which], found[order]


def pad_and_attach(
    state: State,
    restriction: RestrictedFunction,
    y: int,
    index: Optional[FamilyIndex] = None,
) -> State:
    """Attach the padded extraction register to every support vertex.

    Each vertex with tuples t_1..t_z branches into z tuple values and y - z
    dummy values, all at relative amplitude 1/sqrt(y).  Requires z <= y on
    every support vertex.  Keys are vertex key + token, vertices in ordinal
    order; without an index, one is built for the state's subset size.
    """
    if index is None:
        index = FamilyIndex(restriction, len(decode_subset(state.keys()[0])))
    ordinals, amplitudes, labels, found = _padded_register(state, index, y)
    tokens = [dummy_token(i) for i in range(1, y + 1)] + [
        tuple_token(*_row_tuple(row)) for row in found.tolist()
    ]
    vertex_keys = index.basis.keys
    keys = [
        vertex_keys[ordinal] + tokens[label]
        for ordinal, label in zip(np.repeat(ordinals, y).tolist(), labels.tolist())
    ]
    return State.over(Basis.of(keys), amplitudes)


@dataclass(frozen=True)
class ExtractionOutcome:
    """Result of measuring the padded register once.

    kind "tuple": image/preimages hold the measured multicollision, collapsed
    is uniform over the shrunken family [lo-1, hi-1] with the preimages
    removed from every vertex and the collision table grown by one entry.
    new_index is the shrunken family's index, built for its restriction, and
    collapsed lies over its basis; it is None when the cut leaves the empty
    subset (R' = 0), over which collapsed then lies alone (extract_once) or
    which leaves collapsed None too (levels.extract_once, whose collapsed is
    a levels.Levels class state).
    kind "dummy", the dummy d_i: collapsed is uniform over the same family
    narrowed to [lo, i-1], so new_family.hi is i - 1, and new_index is the
    input's index.
    """

    kind: str
    image: Optional[int]
    preimages: Optional[Tuple[int, ...]]
    collapsed: Union[State, "Levels", None]
    new_family: VertexFamily
    new_index: Optional[FamilyIndex]


def _cut_ordinals(
    index: FamilyIndex, ordinals: np.ndarray, preimages: Tuple[int, ...], child: FamilyIndex
) -> np.ndarray:
    """The ordinal in `child` of each vertex `ordinals` of `index` less the
    points `preimages`, which each of those vertices holds: the
    lexicographic rank of its other points among the subsets of the child's
    domain."""
    points = index._domain.take(_set_positions(index._masks.take(ordinals, axis=0))[1])
    points = points[~np.isin(points, preimages)]
    positions = np.searchsorted(child._domain, points).reshape(len(ordinals), child.big_r)
    return _lex_ordinals(positions, len(child._domain))


def extract_once(
    state: State,
    family: VertexFamily,
    rng: np.random.Generator,
    index: FamilyIndex,
) -> ExtractionOutcome:
    """One padded-register measurement on a state uniform over the family's
    entire count class in `index`, which check_uniform_class checks first.

    With probability sum_z |V_z| z / (y |V_{lo,hi}|) the outcome is a tuple;
    the dummy index i appears with probability |V_{lo,i-1}| / (y |V_{lo,hi}|).
    Every branch collapses to a uniform state over its stated family, laid
    over the basis of the outcome's index.
    """
    y = family.padding_width()
    check_uniform_class(state, family, index)
    ordinals, amplitudes, labels, found = _padded_register(state, index, y)
    outcome, mask, scale = _collapse(amplitudes, labels, y + len(found), rng)
    entries = np.flatnonzero(mask)
    rows = ordinals.take(entries // y)
    amplitudes = amplitudes.take(entries) * scale
    if outcome >= y:
        kind = "tuple"
        image, preimages = _row_tuple(found[outcome - y].tolist())
        new_family = family.after_tuple(image, preimages)
        if new_family.big_r:
            new_index = index.child(new_family.restriction, new_family.big_r)
            basis, rows = new_index.basis, _cut_ordinals(index, rows, preimages, new_index)
        else:
            # the tuple was the one collapsed vertex: the empty subset is left
            new_index, basis, rows = None, Basis.of([subset_key(())]), [0]
    else:
        kind, image, preimages = "dummy", None, None
        new_family = replace(family, hi=outcome)
        new_index, basis = index, index.basis
    vector = np.zeros(len(basis), dtype=amplitudes.dtype)
    vector[rows] = amplitudes
    return ExtractionOutcome(
        kind=kind, image=image, preimages=preimages,
        collapsed=State._build(basis, vector), new_family=new_family, new_index=new_index,
    )


def hop(
    state: State,
    index: FamilyIndex,
    cls: frozenset,
    cell: Callable[[int], object],
    rng: np.random.Generator,
) -> Tuple[State, frozenset, FlipStats]:
    """Move a state uniform over the count class cls to a cell of its complement.

    Flips off the vertices whose count lies in cls, against the family's
    diffusion axis, then measures the label cell(count).  Counts run over
    0..max_count; the returned class is the complement's counts in the
    measured cell, and the returned state is uniform over exactly its vertices.
    """
    state, stats = flip(
        state, index.by_count(cls.__contains__), index.axis_state(), Want.BAD, rng
    )
    outcome, state = measure(state, index.by_count(cell), rng)
    rest = frozenset(range(len(index.sizes))) - cls
    return state, frozenset(c for c in rest if cell(c) == outcome), stats


def repair_classes(
    index: CountIndex, family: VertexFamily, target_hi: int
) -> Tuple[frozenset, frozenset]:
    """The premises of widening a state over the family's class [lo, b] back
    to [lo, target_hi], checked on the class sizes of `index`.

    Returns the count classes a repair starts from and ends at, {lo..b} and
    {lo..target_hi}: equal when b = target_hi, and no class size is read
    then.  Otherwise the three classes [lo, target_hi], [0, lo-1] and
    [target_hi+1, inf) must be nonempty; instances failing that are flagged,
    not patched.
    """
    x = family.lo
    b = family.hi
    if b is None or target_hi < x or b > target_hi:
        raise ParameterError(
            f"cannot correct interval [{x}, {b}] to [{x}, {target_hi}]"
        )
    y = target_hi
    start, target = frozenset(range(x, b + 1)), frozenset(range(x, y + 1))
    if start == target:
        return start, target
    low_size = index.class_size(0, x - 1)
    top_size = index.class_size(y + 1, None)
    if index.class_size(x, y) == 0:
        raise ImpossibleTargetError(
            f"target class [{x}, {y}] holds no vertices"
        )
    if low_size == 0 or top_size == 0:
        raise FlaggedInstanceError(
            f"classes below {x} and above {y} must be nonempty "
            f"(sizes {low_size}, {top_size})."
        )
    return start, target


def correct_interval(
    state: State,
    family: VertexFamily,
    target_hi: int,
    index: FamilyIndex,
    rng: np.random.Generator,
) -> Tuple[State, FlipStats]:
    """Widen a narrowed family state [lo, b] back to [lo, target_hi].

    Hops from the classes repair_classes gives until the state covers [lo,
    target_hi].  Each hop splits the complement at lo while that holds
    counts below lo, and otherwise (from [0, lo-1]) at target_hi + 1.
    """
    cls, target = repair_classes(index, family, target_hi)
    stats = FlipStats()
    for _ in range(MAX_TRANSITIONS):
        if cls == target:
            return state, stats
        split = target_hi + 1 if cls.issuperset(range(family.lo)) else family.lo
        state, cls, fs = hop(state, index, cls, lambda c: c >= split, rng)
        stats.absorb(fs)
    raise SimulationError(
        f"interval correction did not converge in {MAX_TRANSITIONS} transitions"
    )
