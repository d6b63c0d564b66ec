"""Exact state vectors over ordered bases of keys.

A state is a numpy vector laid over a Basis: an ordered sequence of distinct
keys with a map from key to position.  Vertex keys are canonical byte
strings: a sorted subset block, optionally followed by an opaque register
suffix.  Equal sets encode to equal keys, and the subset block is
length-prefixed so appending a suffix stays injective.  A basis that no
byte-key API reads may hold other keys, such as positions.

States derived from one another (reflections, measurement branches) share
their basis by identity, so the operations on them are vector operations.
An operation about an axis state (reflect_about_state, and the amplification
built on it) acts on the axis's basis alone: a state over another basis is
moved onto it through the key-to-position map, and a state carrying a key
that basis lacks is refused.  The byte-key API (items, support, amplitude,
construction from a dict) reads through the basis, and a basis built from a
key factory spells its keys out only on that first read.

A vector is float64 when the amplitudes it was built from are real and
complex128 when any is complex.  Every operation keeps its input's dtype, and
one on a real and a complex vector gives a complex one.  Every operator of a
run (the reflections, the measurements, the padding) is real, so a run's
states stay float64 from the first axis to the last residual.

Predicates and measurement labels are key callbacks or vectors over the
state's basis; a callback is read once per key into such a vector.  A
measurement codes its labels, whatever their type, as integer ids into the
sorted distinct labels through np.unique.

Conventions used throughout:

* one settling step (_settled) sets amplitudes of magnitude 1e-12 or below
  to exactly zero and checks that the norm is within 1e-9 of 1.  It runs on
  the result of every operation, so on both reflections of every round of
  amplify.grover_iterate; align only moves amplitudes and settles nothing.
  A state's support is its nonzero positions;
* measure and extraction.extract_once draw by one rule, _collapse: labels in
  sorted order, weights summed in entry order, one uniform draw, the chosen
  branch renormalized.  A fixed generator walks the same distribution;
* state equality is taken up to one global phase.
"""

from __future__ import annotations

import itertools
import struct
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ._stream import Uniform
from .errors import ContractViolationError, ValidationError

PRUNE_EPS = 1e-12
NORM_TOL = 1e-9

BasisKey = bytes
Labels = Union[Callable[[BasisKey], object], np.ndarray]


def subset_key(points: Iterable[int]) -> BasisKey:
    """Canonical key for a set of domain points (order independent)."""
    pts = sorted(set(int(p) for p in points))
    for p in pts:
        if p < 0 or p > 0xFFFFFFFF:
            raise ValidationError(f"point {p} out of encodable range")
    return struct.pack(">H", len(pts)) + b"".join(struct.pack(">I", p) for p in pts)


def decode_subset(key: BasisKey) -> Tuple[int, ...]:
    """Subset block of a key, as a sorted tuple of points."""
    (count,) = struct.unpack_from(">H", key, 0)
    end = 2 + 4 * count
    if len(key) < end:
        raise ValidationError("truncated subset block")
    return tuple(
        struct.unpack_from(">I", key, 2 + 4 * i)[0] for i in range(count)
    )


def key_register(key: BasisKey) -> bytes:
    """Register suffix of a key (empty bytes when none is attached)."""
    (count,) = struct.unpack_from(">H", key, 0)
    return key[2 + 4 * count:]


def attach_register(key: BasisKey, token: bytes) -> BasisKey:
    if key_register(key):
        raise ContractViolationError("key already carries a register")
    return key + token


class Basis:
    """Ordered distinct keys and the map from each key to its position.

    A basis knows its size up front; its keys come from a factory called on
    the first read of `keys` (or of `position`), so a basis that no byte-key
    API reads never spells its keys out.  Basis.of wraps keys at hand.
    """

    __slots__ = ("size", "_keys", "_make_keys", "_position")

    def __init__(self, size: int, make_keys: Optional[Callable[[], Sequence[BasisKey]]]):
        self.size = size
        self._keys: Optional[Sequence[BasisKey]] = None
        self._make_keys: Optional[Callable[[], Sequence[BasisKey]]] = make_keys
        self._position: Optional[Dict[BasisKey, int]] = None

    @classmethod
    def of(cls, keys: Sequence[BasisKey]) -> "Basis":
        basis = cls(len(keys), None)
        basis._keys = keys
        return basis

    def __len__(self) -> int:
        return self.size

    @property
    def keys(self) -> Sequence[BasisKey]:
        if self._keys is None:
            keys = self._make_keys()
            if len(keys) != self.size:
                raise ValidationError(
                    f"key factory gave {len(keys)} keys for a basis of {self.size}"
                )
            self._keys, self._make_keys = keys, None
        return self._keys

    @property
    def position(self) -> Dict[BasisKey, int]:
        if self._position is None:
            self._position = dict(zip(self.keys, range(self.size)))
        return self._position


class State:
    """Unit vector over a Basis, immutable by convention.

    `vector` (read-only) holds one amplitude per basis key, float64 when the
    amplitudes given were real and complex128 when any was complex; entries
    of magnitude PRUNE_EPS or below are stored as exact zeros, and `live`
    lists the nonzero positions, which make up the support.  A State built
    from a dict of key -> amplitude is laid over a basis of its kept keys,
    in dict order; State.over lays a vector over an existing basis.
    `amplitude` reads a Python complex whatever the dtype.
    """

    __slots__ = ("basis", "vector", "live")

    def __init__(self, amplitudes: Dict[BasisKey, complex], *, normalize: bool = False):
        vector = _amplitude_vector(list(amplitudes.values()))
        # pruned as _settled prunes: a NaN is kept, and fails its norm check
        keep = ~(np.abs(vector) <= PRUNE_EPS)
        keys = list(itertools.compress(amplitudes, keep.tolist()))
        self._settle(Basis.of(keys), vector[keep], normalize)

    @classmethod
    def over(cls, basis: Basis, amplitudes) -> "State":
        """State with the given amplitude vector over `basis` (copied)."""
        return cls._build(basis, _amplitude_vector(amplitudes))

    @classmethod
    def _build(cls, basis: Basis, vector: np.ndarray) -> "State":
        state = cls.__new__(cls)
        state._settle(basis, vector)
        return state

    def _settle(self, basis: Basis, vector: np.ndarray, normalize: bool = False) -> None:
        """Take ownership of `vector`: settle it (see _settled), find its support."""
        if len(vector) != len(basis):
            raise ValidationError(
                f"vector of length {len(vector)} over a basis of {len(basis)} keys"
            )
        _settled(vector, normalize)
        vector.flags.writeable = False
        self.basis = basis
        self.vector = vector
        self.live = np.flatnonzero(vector)

    def amplitude(self, key: BasisKey) -> complex:
        pos = self.basis.position.get(key)
        return 0j if pos is None else complex(self.vector[pos])

    def support(self) -> Tuple[BasisKey, ...]:
        return tuple(sorted(self.keys()))

    def items(self) -> List[Tuple[BasisKey, complex]]:
        """(key, amplitude) over the support, in basis order: Python floats
        for a real state, Python complexes for a complex one."""
        return list(zip(self.keys(), self.vector[self.live].tolist()))

    def keys(self) -> List[BasisKey]:
        """The support keys, in basis order."""
        keys = self.basis.keys
        return [keys[i] for i in self.live.tolist()]

    def __len__(self) -> int:
        return len(self.live)

    def __contains__(self, key: BasisKey) -> bool:
        pos = self.basis.position.get(key)
        return pos is not None and self.vector[pos] != 0

    def mask(self, predicate: Labels) -> np.ndarray:
        """Boolean vector over the basis: the predicate (a key callback or a
        boolean vector over the basis) on the support, False off it."""
        flags = np.zeros(len(self.basis), dtype=bool)
        flags[self.live] = values_at(self.basis, predicate, self.live, bool)
        return flags

    def probability(self, predicate: Labels) -> float:
        weights = np.abs(self.vector[self.live]) ** 2
        chosen = weights[self.mask(predicate)[self.live]]
        # a running sum adds in basis order, one float at a time
        return float(np.cumsum(chosen)[-1]) if chosen.size else 0.0


def _amplitude_vector(values) -> np.ndarray:
    """A new vector of `values`: float64 when they are real (or integer),
    complex128 when they are complex."""
    vector = np.array(values)
    return vector.astype(np.result_type(vector.dtype, np.float64), copy=False)


def _settled(vector: np.ndarray, normalize: bool = False) -> np.ndarray:
    """Prune `vector` in place, optionally normalize it, and check its norm.

    Amplitudes of magnitude PRUNE_EPS or below become exact zeros, and a
    normalized vector is pruned again after the division; a vector left with
    no nonzero amplitude, or whose norm^2 is further than NORM_TOL from 1 or
    NaN, raises ValidationError.  Returns `vector`.
    """
    vector[np.abs(vector) <= PRUNE_EPS] = 0
    norm2 = np.vdot(vector, vector).real
    if not norm2:
        raise ValidationError("state has no support")
    if normalize:
        vector /= np.sqrt(norm2)
        vector[np.abs(vector) <= PRUNE_EPS] = 0
        norm2 = np.vdot(vector, vector).real
    # written so that a NaN norm fails it
    if not abs(norm2 - 1.0) <= NORM_TOL:
        raise ValidationError(f"state norm^2 = {norm2!r}, outside tolerance")
    return vector


def values_at(basis: Basis, labels: Labels, positions: np.ndarray, dtype) -> np.ndarray:
    """`labels` at the basis positions: a key callback is called once per
    position and read as `dtype`; a vector over the basis is indexed."""
    if callable(labels):
        keys = [basis.keys[i] for i in positions.tolist()]
        return np.fromiter(map(labels, keys), dtype, len(keys))
    if len(labels) != len(basis):
        raise ValidationError(f"{len(labels)} labels over a basis of {len(basis)} keys")
    return np.asarray(labels)[positions]


def align(state: State, axis: State) -> State:
    """`state` over axis's basis: `state` itself when it already lies over
    that basis, else its support amplitudes moved, unchanged, to their keys'
    positions in it.  Raises ValidationError when a support key is not in
    that basis.  Moving is not an operation: the amplitudes are not settled
    again.
    """
    base = axis.basis
    if state.basis is base:
        return state
    position = base.position
    try:
        where = [position[key] for key in state.keys()]
    except KeyError:
        raise ValidationError("state carries a key outside its axis's basis") from None
    vector = np.zeros(len(base), dtype=state.vector.dtype)
    vector[where] = state.vector[state.live]
    vector.flags.writeable = False
    moved = State.__new__(State)
    moved.basis, moved.vector, moved.live = base, vector, np.flatnonzero(vector)
    return moved


def reflect_about_state(state: State, axis: State) -> State:
    """(2|axis><axis| - I) applied to `state`, over axis's basis.

    A real state and a complex axis, or the reverse, give a complex result."""
    state = align(state, axis)
    out = np.negative(state.vector, dtype=np.result_type(state.vector, axis.vector))
    out += (2.0 * np.vdot(axis.vector, state.vector)) * axis.vector
    return State._build(axis.basis, out)


def reflect_about_predicate(state: State, flip: Labels) -> State:
    """Negate the amplitude of every key where `flip` holds."""
    return State._build(state.basis, np.where(state.mask(flip), -state.vector, state.vector))


def _draw_label(weights: Sequence[float], rng: Uniform) -> int:
    """The label one uniform draw selects, given the labels' weights in sorted
    label order: the first whose cumulative weight exceeds the draw, else the
    last.  A zero-weight label is never selected before the fallback.  It
    reads only `rng.random()`, so a numpy Generator and the run's Stream
    serve alike."""
    draw = float(rng.random())
    acc = 0.0
    for label_id, weight in enumerate(weights):
        acc += weight
        if draw < acc:
            return label_id
    return len(weights) - 1


def _collapse(amplitudes: np.ndarray, label_ids: np.ndarray, count: int, rng: np.random.Generator):
    """One projective draw over entries labelled by ids 0..count-1.

    Each label's weight is summed in entry order and one uniform draw
    selects a label (see _draw_label).  Returns (the label id, the mask of
    its entries, the factor that renormalizes their amplitudes).
    """
    weights = np.bincount(label_ids, np.abs(amplitudes) ** 2, count).tolist()
    chosen = _draw_label(weights, rng)
    return chosen, label_ids == chosen, 1.0 / np.sqrt(weights[chosen])


def measure(state: State, labels: Labels, rng: np.random.Generator):
    """Projective measurement of the register that `labels` spells out.

    Returns (outcome, collapsed state over the same basis).  Each support
    key is labelled once; outcomes are grouped by label, the label set is
    sorted, and _collapse draws the branch.
    """
    distinct, label_ids = np.unique(
        values_at(state.basis, labels, state.live, object), return_inverse=True
    )
    amplitudes = state.vector[state.live]
    chosen, mask, scale = _collapse(amplitudes, label_ids, len(distinct), rng)
    vector = np.zeros(len(state.basis), dtype=state.vector.dtype)
    vector[state.live[mask]] = amplitudes[mask] * scale
    return distinct.tolist()[chosen], State._build(state.basis, vector)


def states_close(a: State, b: State, tol: float = 1e-9) -> bool:
    """Equality up to a global phase, max amplitude deviation below `tol`."""
    ref_key = None
    for k in a.support():
        if abs(a.amplitude(k)) > tol:
            ref_key = k
            break
    if ref_key is None:
        return False
    b_ref = b.amplitude(ref_key)
    if abs(b_ref) <= tol:
        return False
    phase = (a.amplitude(ref_key) / abs(a.amplitude(ref_key))) / (b_ref / abs(b_ref))
    keys = set(dict(a.items())) | set(dict(b.items()))
    return all(abs(a.amplitude(k) - phase * b.amplitude(k)) <= tol for k in keys)

