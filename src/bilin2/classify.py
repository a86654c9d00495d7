"""System ingestion and the controllability verdict.

A system is x(k+1) = (A + sum_i u_i(k) B_i) x(k), or the same without the
drift term A.  The matrix family must be linearly independent, which caps the
input count at 3 with drift and 4 without.  ``analyze`` decides one of three
classes:

* controllable: any nonzero state reaches any nonzero state in at most 3 steps;
* nearly-controllable: the same once the initial state avoids a union of at
  most two lines through the origin (the excluded set); targets are never
  restricted;
* uncontrollable: a common invariant line absorbs every trajectory started on
  it, and nothing off that line is reachable from it.

The excluded set is defined as the zero-line set of the steering form of the
effective input pair, computed in original coordinates.  That set is invariant
under input substitutions and under change of basis (it maps through the
transform), which keeps certificates stable however the canonical forms are
reached.

A system keeps its verdict alone; the steering data is ``steer``'s, and this
module imports nothing from it.  ``apply_reduction`` and ``expand_controls``
read a ``Reduction`` through one decoder, ``_slots``.  Each controllable
verdict is one of eight immutable records, built at import and shared.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from typing import Optional

from .mat2 import (
    DEFAULT_TOL,
    Direction,
    Mat2,
    TolerancePolicy,
    _lincomb,
    _memo,
    _Record,
    _setfield,
    linearly_independent,
)
from .quadform import LineSetKind, LineUnion, pair_lines
from .structure import (
    StructureReport,
    _antidiagonal,
    _candidates,
    _certified,
    _COMBINATIONS,
    _triangular,
    combine_inputs,
)


class InvalidSystem(ValueError):
    """The matrices do not form a valid system of the studied family."""


class SystemKind(Enum):
    WITH_DRIFT = "drift"
    DRIFTLESS = "driftless"


class VerdictClass(Enum):
    CONTROLLABLE = "controllable"
    NEARLY_CONTROLLABLE = "nearly-controllable"
    UNCONTROLLABLE = "uncontrollable"


class BilinearSystem(_Record):
    _fields = ("kind", "drift", "inputs", "tol")

    def __init__(self, kind: SystemKind, drift: Optional[Mat2], inputs: tuple[Mat2, ...],
                 tol: TolerancePolicy = DEFAULT_TOL):
        try:
            inputs = tuple(inputs)
        except TypeError:
            raise InvalidSystem(f"inputs must be an iterable of Mat2, got {inputs!r}") from None
        m = len(inputs)
        if kind is SystemKind.WITH_DRIFT:
            if drift is None:
                raise InvalidSystem("drift system requires a drift matrix")
            if not 2 <= m <= 3:
                raise InvalidSystem(f"drift system takes 2 or 3 inputs, got {m}")
        elif kind is not SystemKind.DRIFTLESS:
            raise InvalidSystem(f"kind must be a SystemKind, got {kind!r}")
        else:
            if drift is not None:
                raise InvalidSystem("driftless system cannot carry a drift matrix")
            if not 2 <= m <= 4:
                raise InvalidSystem(f"driftless system takes 2 to 4 inputs, got {m}")
        _setfield(self, "kind", kind)
        _setfield(self, "drift", drift)
        _setfield(self, "inputs", inputs)
        _setfield(self, "tol", tol)
        try:
            if not linearly_independent(self.matrices(), tol):
                raise InvalidSystem("linearly dependent inputs")
        except AttributeError:
            if not isinstance(tol, TolerancePolicy):
                raise InvalidSystem(f"tol must be a TolerancePolicy, got {tol!r}") from None
            if all(isinstance(x, Mat2) for x in self.matrices()):
                raise
            raise InvalidSystem("the drift and every input must be a Mat2") from None

    def __reduce__(self):
        # Copies and unpickling run the checks again and start without memos.
        return (BilinearSystem, (self.kind, self.drift, self.inputs, self.tol))

    @property
    def m(self) -> int:
        return len(self.inputs)

    def matrices(self) -> tuple[Mat2, ...]:
        """Drift first (when present), then the input matrices."""
        if self.drift is not None:
            return (self.drift,) + self.inputs
        return self.inputs

    # Kept in the instance __dict__ (as steer's record is): not a field, so
    # equality, hashing, repr and pickles ignore it.  Racing first reads may
    # both classify; the two verdicts are equal, and one is kept.

    @_memo
    def _verdict(self) -> "Verdict":
        return _classify(self)


class Reduction(_Record):
    """How the inputs were narrowed down to one effective pair.

    ``pinned_index`` holds an input frozen at ``pinned_value`` (1.0 turns it
    into drift, 0.0 drops it); ``combined_indices`` merge two inputs into the
    single matrix ca*Bi + cb*Bj with ``combined_coeffs`` (ca, cb).  The default
    record is the identity: the system already has exactly two inputs.
    """

    _fields = ("pinned_index", "pinned_value", "combined_indices", "combined_coeffs")

    def __init__(self, pinned_index: Optional[int] = None, pinned_value: float = 0.0,
                 combined_indices: Optional[tuple[int, int]] = None,
                 combined_coeffs: Optional[tuple[float, float]] = None):
        _setfield(self, "pinned_index", pinned_index)
        _setfield(self, "pinned_value", pinned_value)
        _setfield(self, "combined_indices", combined_indices)
        _setfield(self, "combined_coeffs", combined_coeffs)

    def is_identity(self) -> bool:
        return self.pinned_index is None and self.combined_indices is None


_IDENTITY = Reduction()
_DROP = tuple(Reduction(pinned_index=k, pinned_value=0.0) for k in range(3))  # input k to 0


class Verdict(_Record):
    """Classification outcome plus the certificates that witness it.

    ``excluded_initial`` is the union of initial-state lines to avoid under a
    nearly-controllable verdict; targets are never restricted.
    ``largest_region`` is the invariant line of an uncontrollable system.
    ``structure`` carries the canonical forms when a shared structure was
    found, and ``reduction`` records how steering should collapse the inputs
    to one effective pair.
    """

    _fields = ("klass", "excluded_initial", "largest_region", "structure", "reduction")

    def __init__(self, klass: VerdictClass, excluded_initial: Optional[LineUnion],
                 largest_region: Optional[Direction], structure: Optional[StructureReport],
                 reduction: Reduction):
        _setfield(self, "klass", klass)
        _setfield(self, "excluded_initial", excluded_initial)
        _setfield(self, "largest_region", largest_region)
        _setfield(self, "structure", structure)
        _setfield(self, "reduction", reduction)


def _controllable(red: Reduction) -> Verdict:
    return Verdict(VerdictClass.CONTROLLABLE, None, None, None, red)


# A controllable verdict holds its reduction alone: all eight are built here
# once and shared.  _COMBINED holds each tested combination of the last two
# inputs with drift and (the first pinned to 1) without, by sys.drift is None.
_PAIR, _PINNED = map(_controllable, (_IDENTITY, Reduction(pinned_index=0, pinned_value=1.0)))
_COMBINED = ({c: _controllable(Reduction(combined_indices=(1, 2), combined_coeffs=c))
              for c in _COMBINATIONS},
             {c: _controllable(Reduction(0, 1.0, (2, 3), c)) for c in _COMBINATIONS})


def apply_reduction(sys: BilinearSystem, red: Reduction) -> BilinearSystem:
    """The effective two-input system the reduction describes."""
    if red.is_identity() and sys.m == 2:
        return sys
    at = dict(zip(_slots(red, sys.m), sys.inputs))
    drift, kind = sys.drift, sys.kind
    if red.pinned_index is not None and red.pinned_value != 0.0:
        drift = (_lincomb(red.pinned_value, at[4]) if drift is None
                 else _lincomb(1.0, drift, red.pinned_value, at[4]))
        kind = SystemKind.WITH_DRIFT
    if red.combined_indices is not None:
        ca, cb = red.combined_coeffs
        return BilinearSystem(kind, drift, (at[0], _lincomb(ca, at[2], cb, at[3])), sys.tol)
    return BilinearSystem(kind, drift, (at[0], at[1]), sys.tol)


def expand_controls(red: Reduction, m: int, v1: float, v2: float) -> tuple[float, ...]:
    """Map effective pair controls (v1, v2) back to a full m-tuple."""
    return _expander(red, m)(v1, v2)


def _slots(red: Reduction, m: int) -> tuple:
    """The slot of each of the m inputs under red: 0 and 1 the effective pair,
    2 and 3 the two inputs combined into its second, 4 the pinned one; or
    InvalidSystem unless red names each input once, within the m, and leaves two."""
    combined = tuple(red.combined_indices or ())
    named = combined + ((red.pinned_index,) if red.pinned_index is not None else ())
    free = tuple(k for k in range(m) if k not in named)
    if len(free) + bool(combined) != 2 or sorted(free + named) != list(range(m)):
        raise InvalidSystem("reduction does not leave exactly two effective inputs")
    slots = dict(zip(free + named, (0, 1)[:len(free)] + (2, 3)[:len(combined)] + (4,)))
    return tuple(slots[k] for k in range(m))


def _expander(red: Reduction, m: int):
    """:func:`expand_controls` under red, as a function of (v1, v2): the m
    controls picked by :func:`_slots` from (v1, v2, ca v2, cb v2, pinned value)."""
    pick, pinned, (ca, cb) = (itemgetter(*_slots(red, m)), red.pinned_value,
                              red.combined_coeffs or (0.0, 0.0))
    return lambda v1, v2: pick((v1, v2, ca * v2, cb * v2, pinned))


def _verdict_controllable(sys: BilinearSystem, ms: tuple[Mat2, ...], settled: bool) -> Verdict:
    """The controllable verdict of the family ms.  Three inputs without drift
    pin the first to 1; three with drift, or four without, combine the last
    two by :func:`combine_inputs` on ms.  ``settled`` holds where the
    candidate stage paired ms[0] with ms[1] and their commutator settled that
    the two share no eigenvector: no combination can then give the family
    one, and (1, 0) is taken with no test."""
    if sys.m == 2:
        return _PAIR
    if len(ms) == 3:
        return _PINNED
    coeffs = (1.0, 0.0) if settled else combine_inputs(*ms, sys.tol)
    return _COMBINED[sys.drift is None][coeffs]


def _nearly(lines: LineUnion, report: StructureReport, red: Reduction) -> Verdict:
    return Verdict(VerdictClass.NEARLY_CONTROLLABLE, lines, None, report, red)


def _verdict_with_common_vector(sys: BilinearSystem, ms: tuple[Mat2, ...],
                                common: Direction) -> Verdict:
    report, trapped = _triangular(ms, common, sys.tol, len(ms) - sys.m)
    if trapped:
        return Verdict(VerdictClass.UNCONTROLLABLE, None, common, report, _IDENTITY)
    if sys.m == 2:
        return _nearly(pair_lines(*sys.inputs, sys.tol), report, _IDENTITY)
    if sys.kind is SystemKind.WITH_DRIFT:
        # Three independent matrices sharing an eigenvector plus an independent
        # drift cannot exist: triangular 2x2 matrices span a 3-dim space.  Only
        # borderline tolerance decisions can land here; refuse honestly.
        raise InvalidSystem("drift system with three inputs sharing an eigenvector "
                            "is inconsistent with linear independence")
    for i, j, pinned in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        lu = pair_lines(sys.inputs[i], sys.inputs[j], sys.tol)
        if lu.kind is not LineSetKind.ALL_OF_PLANE:
            return _nearly(lu, report, _DROP[pinned])
    # Unreachable when some (2,2) entry survives: that input's pairs have
    # nonvanishing forms.  Guard for tolerance corner cases.
    raise InvalidSystem("no input pair with a usable steering form")


def analyze(sys: BilinearSystem) -> Verdict:
    """Classify the system and assemble its certificates.

    The verdict depends on the matrix family alone, so it is computed once per
    system object and kept on it: every later call returns the same Verdict.
    """
    return sys._verdict


def _classify(sys: BilinearSystem) -> Verdict:
    ms = sys.matrices()
    pair, units, commutator = _candidates(ms, sys.tol)
    common = _certified(ms, units, commutator, sys.tol)
    if common is not None:
        return _verdict_with_common_vector(sys, ms, common)
    if sys.kind is SystemKind.DRIFTLESS and sys.m == 2:
        found = _antidiagonal(*sys.inputs, sys.tol)
        if found is not None:
            report, lines = found
            return _nearly(lines, report, _IDENTITY)
    return _verdict_controllable(sys, ms, pair == (0, 1) and commutator is None)

