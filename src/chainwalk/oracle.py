"""Random function tables, query accounting, and collision bookkeeping.

Everything downstream treats the function f: {0,1}^n -> {0,1}^m as an explicit
table. Counted accesses go through :meth:`FunctionTable.query` (or the bulk
:meth:`FunctionTable.charge` for superposition reads); ground-truth scans used
for verification go through :meth:`FunctionTable.value` and are deliberately
not counted.
"""

from __future__ import annotations

import functools
import numbers
import threading
from collections import Counter
from dataclasses import dataclass
from operator import index
from typing import Dict, List, Tuple

from ._stream import integers
from .errors import (
    CapacityError,
    DomainError,
    ParameterError,
    ValidationError,
)


@dataclass(frozen=True)
class Params:
    """Problem size: n input bits, m output bits, 2^k collision tuples wanted.

    n, m and k are integers (require_int), stored as Python ints, in the
    ranges 1 <= n <= m <= 2n and 0 <= k <= 2n - m, so that a random function
    is expected to carry about 2^(2n-m) collisions and the target is not
    larger than that.
    """

    n: int
    m: int
    k: int = 0

    def __post_init__(self) -> None:
        require_int(n=self.n, m=self.m, k=self.k)
        for name in ("n", "m", "k"):
            object.__setattr__(self, name, index(getattr(self, name)))
        if not (1 <= self.n <= self.m <= 2 * self.n):
            raise ParameterError(
                f"need 1 <= n <= m <= 2n, got n={self.n}, m={self.m}"
            )
        if not (0 <= self.k <= 2 * self.n - self.m):
            raise ParameterError(
                f"need 0 <= k <= 2n - m = {2 * self.n - self.m}, got k={self.k}"
            )

    @property
    def domain_size(self) -> int:
        return 1 << self.n

    @property
    def codomain_size(self) -> int:
        return 1 << self.m


class FunctionTable:
    """Explicit value table for f with a thread-safe query counter.

    The table itself is immutable: `images` holds its values, once, as a
    tuple of Python ints (require_ints), and `values()` builds them into a
    read-only int64 array on each call.  `query_count` only reflects counted
    accesses: per-point `query` calls and bulk `charge` amounts.
    """

    def __init__(self, params: Params, values) -> None:
        # Python ints, which a point lookup or a scan over the domain indexes
        # faster than numpy scalars; an array is read through tolist(), and
        # the caller's values are copied, never kept
        listed = values.tolist() if hasattr(values, "tolist") else values
        try:
            images = require_ints("table value", listed)
        except TypeError:
            raise ParameterError("table values must be integers, one per domain point") from None
        if len(images) != params.domain_size:
            raise ParameterError(
                f"table needs {params.domain_size} entries, got {len(images)}"
            )
        if images and (min(images) < 0 or max(images) >= params.codomain_size):
            raise ParameterError("table value out of codomain range")
        self.params = params
        self.images = images
        self._count = 0
        self._lock = threading.Lock()

    @property
    def query_count(self) -> int:
        return self._count

    def _check_point(self, x: int) -> None:
        if not (0 <= x < self.params.domain_size):
            raise DomainError(f"point {x} outside domain of size {self.params.domain_size}")

    def query(self, x: int) -> int:
        """Counted lookup of f(x)."""
        self._check_point(x)
        with self._lock:
            self._count += 1
        return self.images[x]

    def value(self, x: int) -> int:
        """Ground-truth lookup, not counted.  For verification scans only."""
        self._check_point(x)
        return self.images[x]

    def charge(self, amount: int) -> None:
        """Account for `amount` superposition queries without a point lookup."""
        if amount < 0:
            raise ParameterError("charge amount must be nonnegative")
        with self._lock:
            self._count += amount

    def values(self):
        """The full table as a read-only int64 numpy array, built on each
        call: only tests read it, so a run never imports numpy for it."""
        import numpy as np

        values = np.array(self.images, dtype=np.int64)
        values.setflags(write=False)
        return values


def require_int(**values) -> None:
    """Raise ParameterError unless each of the named `values` is an integer:
    a Python or numpy int, not a bool, a float or a string."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ParameterError(f"{name} must be an integer, got {value!r}")


def require_ints(name: str, values) -> Tuple[int, ...]:
    """The `values` as a tuple of Python ints, after require_int accepts
    each one under `name`."""
    values = tuple(values)
    # a numpy int, or what is no integer at all
    if set(map(type, values)) - {int}:
        for value in values:
            require_int(**{name: value})
        values = tuple(map(index, values))
    return values


def require_real(**values) -> None:
    """Raise ParameterError unless each of the named `values` is a real
    number (numbers.Real): not a bool, a string, a complex or None."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ParameterError(f"{name} must be a real number, got {value!r}")


def generate_function(params: Params, seed: int) -> FunctionTable:
    """Draw a uniformly random table, reproducible from the integer seed: the
    values of default_rng(seed).integers(0, 2**m, 2**n, dtype=np.int64).
    A seed that is not an integer, or is negative, raises ParameterError, as
    default_rng refuses a negative one; so does m > 63, whose images an int64
    cannot hold."""
    require_int(seed=seed)
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    if params.m > 63:
        raise ParameterError(f"need m <= 63 to draw a table, got m={params.m}")
    return FunctionTable(params, integers(seed, params.m, params.domain_size))


class CollisionTable:
    """Ordered map from image to the sorted tuple of its recorded preimages.

    A table never changes: `insert` returns a new table.
    Insertion order is preserved, preimage tuples are sorted, every tuple has
    size at least 2, and no point appears under two images.
    """

    def __init__(self) -> None:
        self._entries: dict[int, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()

    def images(self) -> frozenset[int]:
        return frozenset(self._entries)

    def all_preimages(self) -> frozenset[int]:
        out: set[int] = set()
        for pre in self._entries.values():
            out.update(pre)
        return frozenset(out)

    def insert(self, fn: FunctionTable, image: int, preimages) -> "CollisionTable":
        """Validated copy-and-insert of one collision tuple.  The image and
        each preimage must be integers (require_int)."""
        require_int(image=image)
        image = index(image)
        pre = tuple(sorted(require_ints("preimage", preimages)))
        if len(pre) < 2:
            raise ValidationError("a collision tuple needs at least 2 preimages")
        if len(set(pre)) != len(pre):
            raise ValidationError("repeated preimage in tuple")
        if image in self._entries:
            raise ValidationError(f"image {image} already recorded")
        overlap = self.all_preimages().intersection(pre)
        if overlap:
            raise ValidationError(f"preimages {sorted(overlap)} already recorded")
        for x in pre:
            if fn.value(x) != image:
                raise ValidationError(f"point {x} does not map to image {image}")
        out = CollisionTable()
        out._entries = dict(self._entries)
        out._entries[image] = pre
        return out


@dataclass(frozen=True)
class RestrictedFunction:
    """f with every recorded image's full preimage class carved out.

    `domain_points` are the points left, ascending: every point whose image
    the collision table does not record, whether or not the table stored the
    point.  The simulated algorithm never reads the carved points directly;
    they only show up through which basis labels are allowed.  `classes`
    groups those points by image, on first read; it is the one grouping of a
    restricted domain that the family indexes read.
    """

    base: FunctionTable
    table: CollisionTable
    domain_points: tuple[int, ...]

    @property
    def domain_size(self) -> int:
        return len(self.domain_points)

    @property
    def codomain_size(self) -> int:
        return self.base.params.codomain_size - len(self.table)

    @functools.cached_property
    def classes(self) -> Tuple[List[Tuple[int, List[int]]], Counter]:
        """The image classes of the domain: those of two or more points as
        (image, points) pairs in image order, each listing its points
        ascending as the domain does, and the sizes of all of them,
        singletons included, as law.family_law takes them ({size: how many
        classes})."""
        points = self.domain_points
        table = self.base.images
        images = [table[x] for x in points]
        class_size = Counter(images)
        classes: Dict[int, List[int]] = {
            image: [] for image, size in class_size.items() if size >= 2
        }
        for point, image in zip(points, images):
            if image in classes:
                classes[image].append(point)
        return sorted(classes.items()), Counter(class_size.values())


def restrict(fn: FunctionTable, table: CollisionTable) -> RestrictedFunction:
    """Carve the recorded images and their full preimage classes out of f.

    Raises CapacityError when the closure reaches half the domain, since the
    downstream rejection sampling needs a majority of allowed points.
    """
    recorded = table.images()
    domain = tuple([x for x, image in enumerate(fn.images) if image not in recorded])
    excluded = fn.params.domain_size - len(domain)
    half = fn.params.domain_size // 2
    if excluded >= half:
        raise CapacityError(
            f"exclusion closure has {excluded} points, "
            f"needs fewer than {half}"
        )
    return RestrictedFunction(base=fn, table=table, domain_points=domain)


def enumerate_multicollisions(fn: FunctionTable):
    """Ground-truth scan of the whole domain for every image with >= 2
    preimages.

    A j-fold collision is one entry carrying all j preimages, not j-choose-2
    separate pairs.  Entries come back sorted by image, preimages sorted
    inside each entry.
    """
    groups: dict[int, list[int]] = {}
    for x, image in enumerate(fn.images):
        groups.setdefault(image, []).append(x)
    return sorted((image, tuple(pre)) for image, pre in groups.items() if len(pre) >= 2)
