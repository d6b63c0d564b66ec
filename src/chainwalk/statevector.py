"""Exact state vectors as dicts from key to amplitude.

A State holds its nonzero amplitudes in a dict, keys in basis order: the
order the amplitudes were given in, or, for a state an operation derives,
the order of its axis and then of its input.  Vertex keys are canonical
byte strings: a sorted subset block, optionally followed by an opaque
register suffix.  Equal sets encode to equal keys, and the subset block is
length-prefixed so appending a suffix stays injective.

Amplitudes are real Python floats: every operator of the simulation (the
reflections, the measurements, the padding) is real.  Every operation is a
loop over those dicts, and its result is built by State's one settling step:
amplitudes of magnitude PRUNE_EPS or below drop out, and the norm must lie
within NORM_TOL of 1.  So both reflections of every round of
amplify.grover_iterate prune and check the norm.  Predicates and measurement
labels are key callbacks.

Conventions used throughout:

* a key's weight is its squared amplitude a * a, and a probability or a
  label's weight adds the weights one float at a time in key order;
* measure draws by _stream.choose, the rule the class path (levels) draws
  every outcome by, and extraction.extract_once is a measure of the padded
  register: labels in sorted order, each label's float weight summed in key
  order and then taken exactly, as an integer over one power-of-two
  denominator, and one uniform draw, the chosen branch renormalized.  So
  both paths pick the same label from the same draw wherever their weights
  agree, also at a boundary, where a left fold of float weights could round
  across it;
* state equality is taken up to one global phase.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import Callable, Dict, Iterable, List, Tuple

from ._stream import Uniform, choose
from .errors import ContractViolationError, ParameterError, ValidationError
from .oracle import require_ints

PRUNE_EPS = 1e-12
NORM_TOL = 1e-9

BasisKey = bytes
Labels = Callable[[BasisKey], object]


def subset_key(points: Iterable[int]) -> BasisKey:
    """Canonical key for a set of domain points (order independent), each
    an integer (require_int) in [0, 2**32), or ParameterError."""
    pts = sorted(set(require_ints("point", points)))
    if pts and not (0 <= pts[0] and pts[-1] < 1 << 32):
        raise ParameterError("points must lie in [0, 2**32)")
    return struct.pack(f">H{len(pts)}I", len(pts), *pts)


def decode_subset(key: BasisKey) -> Tuple[int, ...]:
    """Subset block of a key, as a sorted tuple of points."""
    (count,) = struct.unpack_from(">H", key, 0)
    if len(key) < 2 + 4 * count:
        raise ValidationError("truncated subset block")
    return struct.unpack_from(f">{count}I", key, 2)


def key_register(key: BasisKey) -> bytes:
    """Register suffix of a key (empty bytes when none is attached)."""
    (count,) = struct.unpack_from(">H", key, 0)
    return key[2 + 4 * count:]


def attach_register(key: BasisKey, token: bytes) -> BasisKey:
    if key_register(key):
        raise ContractViolationError("key already carries a register")
    return key + token


def _pruned(amplitudes: Dict[BasisKey, float]) -> Dict[BasisKey, float]:
    """A copy of `amplitudes` less those of magnitude PRUNE_EPS or below; a
    NaN is kept, and fails the norm check."""
    return {k: a for k, a in amplitudes.items() if not abs(a) <= PRUNE_EPS}


class State:
    """Unit vector as a dict of its nonzero amplitudes, immutable by
    convention.  Built from a dict of key -> float amplitude, it keeps the keys
    of magnitude above PRUNE_EPS in dict order, divided by their norm first
    when `normalize` is set, and refuses a norm^2 further than NORM_TOL
    from 1 or NaN."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: Dict[BasisKey, float], *, normalize: bool = False):
        kept = _pruned(amplitudes)
        norm2 = sum(map(operator.mul, kept.values(), kept.values()))
        if not norm2:
            raise ValidationError("state has no support")
        if normalize:
            norm = math.sqrt(norm2)
            kept = _pruned({k: a / norm for k, a in kept.items()})
            norm2 = sum(map(operator.mul, kept.values(), kept.values()))
        # written so that a NaN norm fails it
        if not abs(norm2 - 1.0) <= NORM_TOL:
            raise ValidationError(f"state norm^2 = {norm2!r}, outside tolerance")
        self.amplitudes = kept

    def amplitude(self, key: BasisKey) -> float:
        return self.amplitudes.get(key, 0.0)

    def support(self) -> Tuple[BasisKey, ...]:
        return tuple(sorted(self.amplitudes))

    def items(self) -> List[Tuple[BasisKey, float]]:
        """(key, amplitude) over the support, in basis order."""
        return list(self.amplitudes.items())

    def keys(self) -> List[BasisKey]:
        """The support keys, in basis order."""
        return list(self.amplitudes)

    def __len__(self) -> int:
        return len(self.amplitudes)

    def __contains__(self, key: BasisKey) -> bool:
        return key in self.amplitudes

    def probability(self, predicate: Labels) -> float:
        """The weight of the keys where `predicate` holds, added in key order."""
        total = 0.0
        for key, amplitude in self.amplitudes.items():
            if predicate(key):
                total += amplitude * amplitude
        return total


def reflect_about_state(state: State, axis: State) -> State:
    """(2|axis><axis| - I) applied to `state`: axis's keys first, then the
    state's others."""
    amps, axis_amps = state.amplitudes, axis.amplitudes
    twice = 2.0 * sum([a * axis_amps.get(k, 0.0) for k, a in amps.items()])
    out = {k: twice * a for k, a in axis_amps.items()}
    for k, a in amps.items():
        out[k] = out.get(k, 0.0) - a
    return State(out)


def reflect_about_predicate(state: State, flip: Labels) -> State:
    """Negate the amplitude of every key where `flip` holds."""
    return State({k: -a if flip(k) else a for k, a in state.amplitudes.items()})


def measure(state: State, labels: Labels, rng: Uniform):
    """Projective measurement of the register that `labels` spells out.

    Returns (outcome, collapsed state): each support key is labelled once,
    and the outcome is _stream.choose's over the sorted distinct labels,
    each weighing its float weight exactly: an integer over the largest of
    their power-of-two denominators.  The draw reads only `rng.random()`,
    so a numpy Generator and the run's Stream serve alike.  The keys of
    that label keep their order and are renormalized.
    """
    amplitudes = state.amplitudes
    label_of = list(map(labels, amplitudes))
    weights: Dict[object, float] = {}
    for label, a in zip(label_of, amplitudes.values()):
        weights[label] = weights.get(label, 0.0) + a * a
    distinct = sorted(weights)
    ratios = [float(weights[label]).as_integer_ratio() for label in distinct]
    den = max(d for _, d in ratios)
    chosen = distinct[choose([n * (den // d) for n, d in ratios], rng)]
    scale = 1.0 / math.sqrt(weights[chosen])
    return chosen, State({
        k: a * scale for (k, a), label in zip(amplitudes.items(), label_of) if label == chosen
    })


def states_close(a: State, b: State, tol: float = 1e-9) -> bool:
    """Equality up to a global phase, max amplitude deviation below `tol`."""
    ref_key = next((k for k in a.support() if abs(a.amplitude(k)) > tol), None)
    if ref_key is None:
        return False
    b_ref = b.amplitude(ref_key)
    if abs(b_ref) <= tol:
        return False
    phase = (a.amplitude(ref_key) / abs(a.amplitude(ref_key))) / (b_ref / abs(b_ref))
    keys = set(a.amplitudes) | set(b.amplitudes)
    return all(abs(a.amplitude(k) - phase * b.amplitude(k)) <= tol for k in keys)
