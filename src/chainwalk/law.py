"""Exact laws in integers: a vertex family's class sizes and tuple holders,
read off its generating function without enumerating a vertex.

Let a restricted function's domain of N points fall into image classes K of
sizes s.  An R-subset meets each class in t of its points, and its count z is
the number of classes it meets in two or more.  So the number of R-subsets of
count z is the coefficient of x^R y^z in the family's generating function

    F = prod over classes K of  sum_t C(|K|, t) x^t y^[t >= 2]

(Flajolet and Sedgewick, Analytic Combinatorics, ch. II-III).  A tuple (K, P)
is a subset P of a class K with |P| >= 2; the vertices holding it are the S
with S n K = P, that is P plus an (R - |P|)-subset of the domain less K, so
its holders of count z are the coefficient of x^(R-|P|) y^(z-1) in F / f_K,
the law of the domain less K.  That law depends on K only through its size,
so one holders-per-count row serves every tuple of a given (|K|, |P|).

family_law evaluates these products in exact Python integers by Kronecker
substitution: a polynomial in x and y, truncated to x^R, is one integer with
the coefficient of x^r y^z at bit offset bits * (z * (2R + 1) + r), wide
enough that a product of two truncated polynomials carries nothing from one
coefficient into the next.  A product is then one integer multiplication and
one mask.  Classes of equal size are one power f_s^g, taken by squaring, and
the law less one class of size s is the product of the other sizes' powers
and f_s^(g-1), built from prefix and suffix products.  Only the classes of
two or more points are packed, so a slot holds counts of their subsets
alone; the singletons, (1 + x)^g, join at the end as one binomial sum per
count.

LawIndex is a family index on these laws: it answers the count-level reads a
run makes (the sizes |V_c|, their total, class sizes and per-count labels,
the held tuples with their holders per count, and the child after a tuple),
the reads levels.py's class states make of extraction.FamilyIndex too, with
no vertex held.  The child after a tuple (K, P) is the family of
(R - |P|)-subsets of the domain less K, whose vertices of count z are the
parent's holders of a (|K|, |P|) tuple of count z + 1: the child takes its
sizes off that row, and runs family_law for its own holder rows only when
they are first read, which the child left by a run's last tuple never does.
Every index reads its domain's classes from oracle.RestrictedFunction.classes,
the one grouping of a restricted domain by image.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from typing import Callable, Dict, List, Optional, Tuple

from .errors import CapacityError, ContractViolationError, ParameterError
from .oracle import RestrictedFunction, require_int

_MAX_FAMILY_VERTICES = 250_000
# struct's unsigned integer of each width in bytes
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def family_total(points: int, big_r: int) -> int:
    """C(points, big_r), the vertex count of a family, after the checks every
    family index makes: a subset size in 1..points and at most
    _MAX_FAMILY_VERTICES vertices."""
    require_int(big_r=big_r)
    if not (0 < big_r <= points):
        raise ParameterError(
            f"subset size {big_r} invalid for domain of {points} points"
        )
    total = math.comb(points, big_r)
    if total > _MAX_FAMILY_VERTICES:
        raise CapacityError(
            f"family of {total} vertices exceeds enumeration cap "
            f"{_MAX_FAMILY_VERTICES}"
        )
    return total


def _power(base: int, exp: int, keep: int) -> int:
    """base ** exp by squaring, masked with `keep` after every product."""
    result = 1
    while exp:
        if exp & 1:
            result = (result * base) & keep
        exp >>= 1
        if exp:
            base = (base * base) & keep
    return result


def family_law(
    class_sizes: Dict[int, int], big_r: int
) -> Tuple[List[int], Dict[Tuple[int, int], List[int]]]:
    """The law of the R-subsets of a domain whose image classes have the
    sizes `class_sizes` ({size: how many classes}, singletons included).

    Returns the vertex count of every count z = 0..R // 2, and for every
    class size s >= 2 and tuple size p = 2..min(s, R) the holders of one
    tuple of that shape per count z = 0..R // 2 (none at z = 0).
    """
    order = sorted(s for s in class_sizes if s >= 2)
    points = sum(s * class_sizes[s] for s in order)
    top = big_r // 2
    span = 2 * big_r + 1
    # every coefficient counts r-subsets of the classes of two or more
    # points, r <= 2R, so stays below C(points, min(2R, points // 2)); a
    # slot is that many bits rounded up to 1, 2, 4, 8 or a multiple of 8
    # bytes, the first four unpacked by struct in one call (one int.from_bytes
    # a slot is the only way for wider slots, and doubles the law's time at
    # N = 16, R = 8)
    need = -(-math.comb(points, min(2 * big_r, points // 2)).bit_length() // 8)
    step = 1 << (need - 1).bit_length() if need <= 8 else -(-need // 8) * 8
    bits = 8 * step
    row = (1 << bits * (big_r + 1)) - 1
    keep = sum(row << bits * span * z for z in range(top + 1))
    # the singletons take a subset's other points: C(singles, R - r) ways for
    # the subsets meeting the other classes in r points
    ways = [math.comb(class_sizes.get(1, 0), big_r - r) for r in range(big_r + 1)]

    def law(packed: int, size: int) -> List[int]:
        """The subsets of `size` points by count z = 0..R // 2, of the
        singletons and the classes whose masked product is `packed`."""
        length = span * top + big_r + 1
        raw = packed.to_bytes(step * length, "little")
        if step <= 8:
            slots = struct.unpack(f"<{length}{_STRUCT_CODES[step]}", raw)
        else:
            slots = [int.from_bytes(raw[i:i + step], "little") for i in range(0, len(raw), step)]
        tail = ways[big_r - size:]
        return [sum(map(operator.mul, slots[span * z:span * z + size + 1], tail))
                for z in range(top + 1)]

    # f_s^(g-1) and f_s^g of every size s, f_s = sum_t C(s, t) x^t y^[t >= 2]
    fewer, powers = [], []
    for s in order:
        f = sum(math.comb(s, t) << bits * (t + (span if t >= 2 else 0))
                for t in range(min(s, big_r) + 1))
        fewer.append(_power(f, class_sizes[s] - 1, keep))
        powers.append((fewer[-1] * f) & keep)
    prefix = [1]
    for power in powers:
        prefix.append((prefix[-1] * power) & keep)
    suffix = [1]
    for power in reversed(powers):
        suffix.append((suffix[-1] * power) & keep)
    suffix.reverse()

    sizes = law(prefix[-1], big_r)
    holders = {}
    for i, s in enumerate(order):
        less = (prefix[i] * suffix[i + 1]) & keep
        less = (less * fewer[i]) & keep
        for p in range(2, min(s, big_r) + 1):
            holders[s, p] = [0] + law(less, big_r - p)[:top]
    return sizes, holders


class CountIndex:
    """The count-level reads of a family index: `sizes`, the class size
    |V_c| of every count c = 0..max_count as an exact Python int, `total`,
    their sum, and `occupied`, the counts whose size is not 0.

    A subclass is built from (restriction, R) and also lists the tuples the
    vertices of given counts hold, as (image, preimages) pairs with their
    holders per count (tuple_holders).
    """

    sizes: List[int]
    total: int

    def child(self, restriction: RestrictedFunction, big_r: int) -> "CountIndex":
        """The index, of this one's kind, of the family left after a tuple:
        `restriction` records it, which carves its whole class out of the
        domain, and `big_r` is R less its size."""
        return type(self)(restriction, big_r)

    def class_size(self, lo: int, hi: Optional[int]) -> int:
        if hi is not None and hi < lo:
            return 0
        return sum(self.sizes[lo:None if hi is None else hi + 1])

    def per_count(self, label: Callable[[int], object]) -> list:
        """label(c) of every count c = 0..max_count, as a list."""
        return [label(c) for c in range(len(self.sizes))]

    @functools.cached_property
    def occupied(self) -> frozenset:
        """The counts whose class holds vertices, built on first read."""
        return frozenset(c for c, size in enumerate(self.sizes) if size)


class LawIndex(CountIndex):
    """A family index on the exact law of (restriction, R), holding no vertex.

    The class sizes of the restriction's `classes` feed family_law, whose
    vertex counts become `sizes` (checked to sum to C(N, R)) and whose holder
    rows are kept per tuple shape (|K|, |P|).  A child takes its sizes off
    its parent's holder row instead and runs family_law on its first
    tuple_holders, so its restriction groups its domain only then.  The
    family cap and its CapacityError are family_total's, which both kinds of
    index check, so a run stops where it did when it enumerated.
    """

    def __init__(
        self,
        restriction: RestrictedFunction,
        big_r: int,
        sizes: Optional[List[int]] = None,
    ) -> None:
        points = restriction.domain_points
        self.total = family_total(len(points), big_r)
        self.restriction, self.big_r = restriction, big_r
        self._holders: Optional[Dict[Tuple[int, int], List[int]]] = None
        if sizes is None:
            sizes = self._law()
        if sum(sizes) != self.total:
            raise ContractViolationError(
                f"family law sums to {sum(sizes)}, not C({len(points)}, {big_r}) = {self.total}"
            )
        while not sizes[-1]:
            sizes.pop()
        self.sizes = sizes

    def _law(self) -> List[int]:
        """Run family_law on the class sizes, keep its holder rows and return
        its sizes of every count 0..R // 2."""
        sizes, self._holders = family_law(self.restriction.classes[1], self.big_r)
        return sizes

    def _holder_rows(self) -> Dict[Tuple[int, int], List[int]]:
        """The holder rows per tuple shape, from family_law on first read.
        An index built without sizes ran the law when it was built; a child,
        whose sizes came off its parent's holder row, runs it here, and the
        law's sizes must be those, up to trailing zeros."""
        if self._holders is None:
            law = self._law()
            if law[:len(self.sizes)] != self.sizes or any(law[len(self.sizes):]):
                raise ContractViolationError(
                    f"family law gives sizes {law}, not {self.sizes} as the parent's row does"
                )
        return self._holders

    def child(self, restriction: RestrictedFunction, big_r: int) -> "LawIndex":
        """The index after a tuple (K, P): `restriction` carves K out of the
        domain and `big_r` is R - |P|, so the child's classes are this
        index's less K, and its vertices of count z are this index's holders
        of a (|K|, |P|) tuple of count z + 1."""
        recorded = restriction.table.images()
        carved = [len(points) for image, points in self.restriction.classes[0]
                  if image in recorded]
        shape = (carved[0], self.big_r - big_r) if len(carved) == 1 else None
        row = self._holder_rows().get(shape)
        if row is None:
            raise ContractViolationError(
                f"({len(restriction.domain_points)} points, R = {big_r}) is not a "
                f"family that a tuple of this one leaves"
            )
        return LawIndex(restriction, big_r, row[1:])

    def tuple_holders(self, live: List[bool]) -> Tuple[List[tuple], List[List[int]]]:
        """The tuples held by the vertices of the counts where `live` holds,
        in tuple_token order, as (image, preimages) pairs, and each one's
        holders among those vertices per count 0..max_count.  Tuples of one
        shape share one holder row."""
        shapes = {}
        for shape, row in self._holder_rows().items():
            row = [h if alive else 0 for h, alive in zip(row, live)]
            if any(row):
                shapes[shape] = row
        found, holders = [], []
        for image, members in self.restriction.classes[0]:
            for p in range(2, min(len(members), self.big_r) + 1):
                row = shapes.get((len(members), p))
                if row is None:
                    continue
                for tup in itertools.combinations(members, p):
                    found.append((image, tup))
                    holders.append(row)
        return found, holders

