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

Interval repair (correct_interval) widens [x, i-1] back to [x, y] by a few
hops: each flips a state uniform over a class of counts off that class and
measures a partition of the counts left.  A run does both on count-class
states (levels.py), a class of counts in place of a vector; the vector
versions here are the reference its differential tests compare against.
What both paths decide on the same numbers is written here once and read by
both: repair's premises and its start and target classes (repair_classes,
over any law.CountIndex), the cell each repair hop measures (repair_cell),
the padding width y (VertexFamily.padding_width) and the family a tuple
outcome leaves (VertexFamily.after_tuple).

Families are described by VertexFamily: a restricted function, a subset size,
and an inclusive count interval whose upper end may be unbounded.  FamilyIndex
enumerates a family's vertices with itertools.combinations over the domain
and holds, under each vertex's byte key and in lexicographic order, its
count, read off its sorted images, and the tuples it holds: each image it
meets in two or more points, with those points, in image order.  So class
sizes, class states and the held tuples are exact.  A run reads none of
this: its index is law.LawIndex, which answers the count-level reads from
the family's exact law, and FamilyIndex stays as the acceptance API, the
vector path's index and the reference the law index is tested against.

The padded register is a State over vertex key + token keys
(pad_and_attach), and extract_once measures it with statevector.measure,
its outcomes the tokens in sorted order: the dummies by index, then the
tuples by (image, size, preimages).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ._stream import Uniform
from .amplify import FlipStats, Want, flip, hop_until
from .errors import (
    ContractViolationError,
    FlaggedInstanceError,
    ImpossibleTargetError,
    ParameterError,
    ValidationError,
)
from .law import CountIndex, family_total
from .oracle import RestrictedFunction, require_int, require_ints, restrict
from .statevector import BasisKey, State, decode_subset, measure
from .stats import collision_counts

if TYPE_CHECKING:
    from .levels import Levels

_TUPLE_TAG = b"t"
_DUMMY_TAG = b"d"
_UNIFORM_TOL = 1e-9
# Both repair paths' give-up, which amplify.hop_until formats with its bound.
REPAIR_STALLED = "interval correction did not converge in {} transitions"

HeldTuple = Tuple[int, Tuple[int, ...]]


def tuple_token(image: int, preimages) -> bytes:
    """Serialized extraction-register value for one multicollision tuple.
    The image and each preimage must be integers (require_int)."""
    require_int(image=image)
    image = operator.index(image)
    pres = tuple(sorted(require_ints("preimage", preimages)))
    if len(pres) < 2:
        raise ParameterError("a tuple token needs at least two preimages")
    if len(pres) > 255:
        raise ParameterError("tuple too large to serialize")
    if not (0 <= image < 1 << 32 and 0 <= pres[0] and pres[-1] < 1 << 32):
        raise ParameterError("tuple image and preimages must lie in [0, 2**32)")
    body = struct.pack(">IB", image, len(pres))
    return _TUPLE_TAG + body + b"".join(struct.pack(">I", p) for p in pres)


def dummy_token(index: int) -> bytes:
    """Serialized extraction-register value for the dummy branch d_index,
    an integer (require_int)."""
    require_int(index=index)
    index = operator.index(index)
    if not (1 <= index < (1 << 16)):
        raise ParameterError(f"dummy index out of range: {index}")
    return _DUMMY_TAG + struct.pack(">H", index)


@dataclass(frozen=True)
class VertexFamily:
    """All subsets of a fixed size whose multicollision count lies in [lo, hi].

    hi = None means unbounded above; R, lo and a finite hi are integers
    (require_int).  Membership additionally requires the
    subset to avoid the restriction's exclusion closure, which is implied for
    subsets drawn from restriction.domain_points.
    """

    restriction: RestrictedFunction
    big_r: int
    lo: int
    hi: Optional[int]

    def __post_init__(self) -> None:
        require_int(big_r=self.big_r, lo=self.lo)
        if self.big_r < 0:
            raise ParameterError("subset size must be non-negative")
        if self.lo < 0:
            raise ParameterError("interval lower bound must be non-negative")
        if self.hi is not None:
            require_int(hi=self.hi)
            if self.hi < self.lo:
                raise ParameterError(f"empty interval [{self.lo}, {self.hi}]")

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


class FamilyIndex(CountIndex):
    """Exhaustive per-subset multicollision data for one (restriction, R).

    The index holds every R-subset of the restricted domain, so class sizes
    and count lookups are exact.  That exhaustive view is the desk-scale
    privilege that stands in for the quantum data structure.

    `counts` maps each vertex's byte key, in lexicographic order, to its
    count: with the vertex's images sorted, each class it meets twice or
    more is a run of equal images, and stats.collision_counts, the
    sampler's run count, counts the runs.  `tuples` maps each key to the
    tuples the vertex holds, as (image, preimages) pairs in image order, its
    points grouped by image on first read: only extraction and
    tuple_holders read them.
    """

    def __init__(self, restriction: RestrictedFunction, big_r: int) -> None:
        self.restriction = restriction
        self.big_r = big_r
        domain = restriction.domain_points
        self.total = family_total(len(domain), big_r)
        spell = functools.partial(struct.Struct(f">H{big_r}I").pack, big_r)
        keys = list(itertools.starmap(spell, itertools.combinations(domain, big_r)))
        # each vertex's images, in the vertices' order, sorted
        images = itertools.combinations([restriction.base.images[x] for x in domain], big_r)
        rows = np.fromiter(itertools.chain.from_iterable(images), np.int64)
        counts = collision_counts(np.sort(rows.reshape(self.total, big_r), axis=1))
        self.counts: Dict[BasisKey, int] = dict(zip(keys, counts.tolist()))
        # the class size |V_c| of every count c = 0..max_count
        self.sizes: List[int] = np.bincount(counts).tolist()
        # by_count's callbacks, under their labels of the counts
        self._labelled: Dict[tuple, Callable[[BasisKey], object]] = {}

    @functools.cached_property
    def tuples(self) -> Dict[BasisKey, Tuple[HeldTuple, ...]]:
        """Each vertex's tuples under its key, grouped on first read.  A
        vertex's tuples are those of its points in the restriction's classes
        of two or more, so vertices that share those points share one
        grouping."""
        images = self.restriction.base.images
        domain = self.restriction.domain_points
        shared = {x for _, points in self.restriction.classes[0] for x in points}.__contains__
        held: Dict[BasisKey, Tuple[HeldTuple, ...]] = dict.fromkeys(self.counts, ())
        grouped: Dict[Tuple[int, ...], Tuple[HeldTuple, ...]] = {}
        vertices = zip(self.counts, itertools.combinations(domain, self.big_r))
        # a vertex of count 0 holds no tuple
        for key, vertex in itertools.compress(vertices, self.counts.values()):
            part = tuple(filter(shared, vertex))
            if part not in grouped:
                met: Dict[int, List[int]] = {}
                for x in part:
                    met.setdefault(images[x], []).append(x)
                grouped[part] = tuple(
                    (image, tuple(points)) for image, points in sorted(met.items())
                    if len(points) >= 2
                )
            held[key] = grouped[part]
        return held

    @functools.cached_property
    def _holder_rows(self) -> Dict[HeldTuple, List[int]]:
        """Each held tuple's holders per count 0..max_count, tuples in token
        order, counted off `tuples` on first read."""
        rows: Dict[HeldTuple, List[int]] = {}
        for held in self.tuples.values():
            for found in held:
                rows.setdefault(found, [0] * len(self.sizes))[len(held)] += 1
        # tuple_token's byte order: image, size, then preimages
        order = sorted(rows, key=lambda found: (found[0], len(found[1]), found[1]))
        return {found: rows[found] for found in order}

    def tuple_holders(self, live: List[bool]) -> Tuple[List[HeldTuple], List[List[int]]]:
        """law.LawIndex.tuple_holders read off the vertices: the tuples held
        by the vertices of the counts where `live` holds, in token order, as
        (image, preimages) pairs, and each one's holders among those
        vertices per count 0..max_count."""
        rows = self._live_rows(self._holder_rows, live)
        return list(rows), list(rows.values())

    def by_count(self, label: Callable[[int], object]) -> Callable[[BasisKey], object]:
        """Key callback: label(count) of a vertex, and None off the family,
        with `label` called once per count 0..max_count.  Labels that agree
        on every count share one callback, built on first use."""
        table = tuple(self.per_count(label))
        if table not in self._labelled:
            self._labelled[table] = {key: table[c] for key, c in self.counts.items()}.get
        return self._labelled[table]

    @functools.cached_property
    def axis(self) -> State:
        """The diffusion axis, uniform over every vertex, built on first use."""
        return self.class_state(0, None)

    def class_state(self, lo: int, hi: Optional[int]) -> State:
        """Uniform superposition over the vertices with count in [lo, hi]."""
        keys = list(filter(self.by_count(in_range(lo, hi)), self.counts))
        if not keys:
            raise ImpossibleTargetError(f"no vertices with count in [{lo}, {hi}]")
        return State(dict.fromkeys(keys, 1.0 / math.sqrt(len(keys))))


def check_uniform_class(state: State, family: VertexFamily, index: FamilyIndex) -> None:
    """Raise ValidationError unless the state is exactly uniform over the
    family's entire count class in `index`.

    Every support key must be a vertex whose count lies in the family's
    interval, and there must be as many keys as the class holds.  The
    support keys are distinct, so those two facts make it the whole class.
    """
    inside = index.by_count(in_range(family.lo, family.hi))
    if len(state) != index.class_size(family.lo, family.hi) or not all(map(inside, state.keys())):
        raise ValidationError(f"state support does not match family {family.interval_label()}")
    target = 1.0 / math.sqrt(len(state))
    magnitudes = list(map(abs, state.amplitudes.values()))
    if max(magnitudes) - target > _UNIFORM_TOL or target - min(magnitudes) > _UNIFORM_TOL:
        raise ValidationError("state is not uniform over its support")


def pad_and_attach(
    state: State,
    restriction: RestrictedFunction,
    y: int,
    index: Optional[FamilyIndex] = None,
) -> State:
    """Attach the padded extraction register to every support vertex.

    Each vertex with tuples t_1..t_z branches into z tuple values and y - z
    dummy values, all at relative amplitude 1/sqrt(y).  Requires z <= y on
    every support vertex.  Keys are vertex key + token, vertices in the
    state's order and each one's tuples in image order before its dummies
    d_{z+1}..d_y; without an index, one is built for the state's subset
    size.
    """
    require_int(y=y)
    if y < 1:
        raise ParameterError("padding width y must be at least 1")
    if index is None:
        index = FamilyIndex(restriction, len(decode_subset(state.keys()[0])))
    dummies = [dummy_token(i) for i in range(1, y + 1)]
    # vertices that hold the same tuples share one list of tokens
    tokens = functools.cache(
        lambda held: [tuple_token(*found) for found in held] + dummies[len(held):]
    )
    scale = 1.0 / math.sqrt(y)
    register = {}
    for key, amplitude in state.items():
        held = index.tuples.get(key)
        if held is None:
            raise ValidationError("state carries a key that is not a vertex of its index")
        if len(held) > y:
            raise ContractViolationError(
                f"a vertex holds {len(held)} tuples, above the padding width {y}"
            )
        for token in tokens(held):
            register[key + token] = amplitude * scale
    return State(register)


@dataclass(frozen=True)
class ExtractionOutcome:
    """Result of measuring the padded register once.

    kind "tuple": image/preimages hold the measured multicollision, collapsed
    is uniform over the shrunken family [lo-1, hi-1] with the preimages
    removed from every vertex and the collision table grown by one entry.
    When the cut leaves the empty subset (R' = 0), collapsed lies on it
    alone (extract_once), or is None (levels.extract_once, whose collapsed
    is a levels.Levels class state over the child index).
    kind "dummy", the dummy d_i: collapsed is uniform over the same family
    narrowed to [lo, i-1], so new_family.hi is i - 1.
    """

    kind: str
    image: Optional[int]
    preimages: Optional[Tuple[int, ...]]
    collapsed: Union[State, "Levels", None]
    new_family: VertexFamily


def extract_once(
    state: State,
    family: VertexFamily,
    rng: Uniform,
    index: FamilyIndex,
) -> ExtractionOutcome:
    """One padded-register measurement on a state uniform over the family's
    entire count class in `index`, which check_uniform_class checks first.

    It measures pad_and_attach's register with `measure`, so the outcomes
    are the tokens in sorted order: d_1..d_y, then the tuples.  With
    probability sum_z |V_z| z / (y |V_{lo,hi}|) the outcome is a tuple; the
    dummy index i appears with probability |V_{lo,i-1}| / (y |V_{lo,hi}|).
    Every branch collapses to a uniform state over its stated family: the
    vertices the outcome's branches lie on, less the tuple's preimages after
    a tuple.
    """
    y = family.padding_width()
    check_uniform_class(state, family, index)
    # every key of the index is 2 + 4 R bytes long: the register follows them
    width = 2 + 4 * index.big_r
    token, collapsed = measure(
        pad_and_attach(state, family.restriction, y, index),
        operator.itemgetter(slice(width, None)),
        rng,
    )
    vertices = {key[:width]: a for key, a in collapsed.items()}
    if token.startswith(_DUMMY_TAG):
        (i,) = struct.unpack_from(">H", token, 1)
        return ExtractionOutcome(
            kind="dummy", image=None, preimages=None, collapsed=State(vertices),
            new_family=replace(family, hi=i - 1),
        )
    image, size = struct.unpack_from(">IB", token, 1)
    preimages = struct.unpack_from(f">{size}I", token, 6)
    new_family = family.after_tuple(image, preimages)
    spell = struct.Struct(f">H{new_family.big_r}I").pack
    residual = {
        spell(new_family.big_r, *(p for p in decode_subset(key) if p not in preimages)): a
        for key, a in vertices.items()
    }
    return ExtractionOutcome(
        kind="tuple", image=image, preimages=preimages,
        collapsed=State(residual), new_family=new_family,
    )


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


def repair_cell(
    counts: frozenset, family: VertexFamily, target_hi: int
) -> Callable[[int], bool]:
    """The cell label, c >= split, that a repair hop off the class `counts`
    measures: a class holding a count below lo (on repair's path, [0, lo-1])
    splits the counts left at target_hi + 1, so the hop lands on
    [lo, target_hi] or above it, and every other class splits them at lo."""
    split = target_hi + 1 if min(counts) < family.lo else family.lo
    return lambda c: c >= split


def hop(
    state: State,
    index: FamilyIndex,
    cls: frozenset,
    cell: Callable[[int], object],
    rng: Uniform,
) -> Tuple[State, frozenset, FlipStats]:
    """Move a state uniform over the count class cls to a cell of its complement.

    Flips off the vertices whose count lies in cls, against the family's
    diffusion axis, then measures the label cell(count).  Counts run over
    0..max_count; the returned class is the complement's counts in the
    measured cell, and the returned state is uniform over exactly its vertices.
    """
    state, stats = flip(state, index.by_count(cls.__contains__), index.axis, Want.BAD, rng)
    outcome, state = measure(state, index.by_count(cell), rng)
    rest = frozenset(range(len(index.sizes))) - cls
    return state, frozenset(c for c in rest if cell(c) == outcome), stats


def correct_interval(
    state: State,
    family: VertexFamily,
    target_hi: int,
    index: FamilyIndex,
    rng: Uniform,
) -> Tuple[State, FlipStats]:
    """Widen a narrowed family state [lo, b] back to [lo, target_hi].

    From the class repair_classes gives, amplify.hop_until runs hops over
    (state, class) pairs: each measures the cell repair_cell gives for the
    class, and the class becomes the counts outside it in the measured
    cell, until it is [lo, target_hi].
    """
    cls, target = repair_classes(index, family, target_hi)

    def step(pair):
        state, cls = pair
        state, cls, stats = hop(state, index, cls, repair_cell(cls, family, target_hi), rng)
        return (state, cls), stats

    moved, stats = hop_until((state, cls), step, lambda pair: pair[1] == target, REPAIR_STALLED)
    return moved[0], stats
