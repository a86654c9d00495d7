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
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import Optional

from .mat2 import (
    DEFAULT_TOL,
    Direction,
    Mat2,
    TolerancePolicy,
    _lincomb,
    _Record,
    _setfield,
    linearly_independent,
)
from .quadform import LineSetKind, LineUnion, form_scale, pair_lines
from .structure import (
    StructureReport,
    _antidiagonal,
    _candidates,
    _certified,
    _combine_inputs,
    _triangular,
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
        inputs = tuple(inputs)
        m = len(inputs)
        if kind is SystemKind.WITH_DRIFT:
            if drift is None:
                raise InvalidSystem("drift system requires a drift matrix")
            if not 2 <= m <= 3:
                raise InvalidSystem(f"drift system takes 2 or 3 inputs, got {m}")
        else:
            if drift is not None:
                raise InvalidSystem("driftless system cannot carry a drift matrix")
            if not 2 <= m <= 4:
                raise InvalidSystem(f"driftless system takes 2 to 4 inputs, got {m}")
        _setfield(self, "kind", kind)
        _setfield(self, "drift", drift)
        _setfield(self, "inputs", inputs)
        _setfield(self, "tol", tol)
        if not linearly_independent(self.matrices(), tol):
            raise InvalidSystem("linearly dependent inputs")

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

    # Per-instance memos of what depends on the family alone.  cached_property
    # writes straight into the instance __dict__, so they are not fields:
    # equality, hashing and repr ignore them, and they die with the system.

    @cached_property
    def _verdict(self) -> "Verdict":
        return _classify(self)

    @cached_property
    def _effective(self) -> "BilinearSystem":
        """The two-input system the verdict's reduction leaves; defined for
        verdicts other than uncontrollable."""
        return apply_reduction(self, self._verdict.reduction)

    @cached_property
    def _form_scale(self) -> float:
        """|B1|_F |B2|_F of a two-input system, the one step's clearance scale."""
        return form_scale(*self.inputs)

    @cached_property
    def _steering(self):
        """State-independent steering data of a two-input system."""
        from .steer import _Steering  # steer imports this module

        return _Steering(self)

    @cached_property
    def _control_layout(self) -> tuple:
        """:func:`expand_controls`' layout of the verdict's reduction."""
        return _reduction_layout(self._verdict.reduction, self.m)


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


def apply_reduction(sys: BilinearSystem, red: Reduction) -> BilinearSystem:
    """The effective two-input system the reduction describes."""
    if red.is_identity():
        if sys.m != 2:
            raise InvalidSystem("identity reduction on a system with more than two inputs")
        return sys
    drift = sys.drift
    kind = sys.kind
    remaining = list(range(sys.m))
    if red.pinned_index is not None:
        remaining.remove(red.pinned_index)
        if red.pinned_value != 0.0:
            pinned = sys.inputs[red.pinned_index]
            drift = (_lincomb(red.pinned_value, pinned) if drift is None
                     else _lincomb(1.0, drift, red.pinned_value, pinned))
            kind = SystemKind.WITH_DRIFT
    if red.combined_indices is not None:
        i, j = red.combined_indices
        ca, cb = red.combined_coeffs
        combined = _lincomb(ca, sys.inputs[i], cb, sys.inputs[j])
        remaining = [k for k in remaining if k not in (i, j)]
        pair = tuple(sys.inputs[k] for k in remaining) + (combined,)
    else:
        pair = tuple(sys.inputs[k] for k in remaining)
    if len(pair) != 2:
        raise InvalidSystem("reduction does not leave exactly two effective inputs")
    return BilinearSystem(kind, drift, pair, sys.tol)


def expand_controls(red: Reduction, m: int, v1: float, v2: float) -> tuple[float, ...]:
    """Map effective pair controls (v1, v2) back to a full m-tuple."""
    return _expand(_reduction_layout(red, m), v1, v2)


def _reduction_layout(red: Reduction, m: int) -> tuple:
    """Where :func:`expand_controls` puts what: a getter of the m controls from
    (v1, v2, ca * v2, cb * v2, pinned value), the pinned value and (ca, cb)."""
    remaining = [k for k in range(m) if k != red.pinned_index]
    slots, coeffs = {red.pinned_index: 4}, red.combined_coeffs or (0.0, 0.0)
    if red.combined_indices is not None:
        i, j = red.combined_indices
        (plain,) = [k for k in remaining if k not in (i, j)]
        slots.update({plain: 0, i: 2, j: 3})
    else:
        first, second = remaining
        slots.update({first: 0, second: 1})
    return itemgetter(*(slots[k] for k in range(m))), red.pinned_value, coeffs


def _expand(layout: tuple, v1: float, v2: float) -> tuple[float, ...]:
    """The m controls of (v1, v2) under a :func:`_reduction_layout`."""
    pick, pinned, (ca, cb) = layout
    return pick((v1, v2, ca * v2, cb * v2, pinned))


def _verdict_controllable(sys: BilinearSystem, first: int, directions: tuple[Direction, ...],
                          failed_at: list[int]) -> Verdict:
    """The controllable verdict; ``first`` and ``directions`` are the
    common-eigenvector candidates of ``sys.matrices()``, and ``failed_at``
    what ``_certified`` found for them."""
    if sys.m == 2:
        red = Reduction()
    elif sys.kind is SystemKind.WITH_DRIFT:
        ca, cb = _combine_inputs(*sys.matrices(), first, directions, failed_at, sys.tol)
        red = Reduction(combined_indices=(1, 2), combined_coeffs=(ca, cb))
    elif sys.m == 3:
        red = Reduction(pinned_index=0, pinned_value=1.0)
    else:
        ca, cb = _combine_inputs(*sys.inputs, first, directions, failed_at, sys.tol)
        red = Reduction(pinned_index=0, pinned_value=1.0,
                        combined_indices=(2, 3), combined_coeffs=(ca, cb))
    return Verdict(VerdictClass.CONTROLLABLE, None, None, None, red)


def _nearly(lines: LineUnion, report: StructureReport, red: Reduction) -> Verdict:
    return Verdict(VerdictClass.NEARLY_CONTROLLABLE, lines, None, report, red)


def _verdict_with_common_vector(sys: BilinearSystem, common: Direction) -> Verdict:
    report = _triangular(sys.matrices(), common, sys.tol)
    input_forms = report.canonical_forms[1:] if sys.drift is not None else report.canonical_forms
    live = [not sys.tol.is_zero(f.a22, b.frob())
            for f, b in zip(input_forms, sys.inputs)]
    if not any(live):
        return Verdict(VerdictClass.UNCONTROLLABLE, None, common, report, Reduction())
    if sys.m == 2:
        return _nearly(pair_lines(*sys.inputs, sys.tol), report, Reduction())
    if sys.kind is SystemKind.WITH_DRIFT:
        # Three independent matrices sharing an eigenvector plus an independent
        # drift cannot exist: triangular 2x2 matrices span a 3-dim space.  Only
        # borderline tolerance decisions can land here; refuse honestly.
        raise InvalidSystem("drift system with three inputs sharing an eigenvector "
                            "is inconsistent with linear independence")
    for i, j in ((0, 1), (0, 2), (1, 2)):
        lu = pair_lines(sys.inputs[i], sys.inputs[j], sys.tol)
        if lu.kind is not LineSetKind.ALL_OF_PLANE:
            (pinned,) = set(range(3)) - {i, j}
            return _nearly(lu, report, Reduction(pinned_index=pinned, pinned_value=0.0))
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
    first, directions = _candidates(ms, sys.tol)
    common, failed_at = _certified(ms, directions, sys.tol)
    if common is not None:
        return _verdict_with_common_vector(sys, common)
    if sys.kind is SystemKind.DRIFTLESS and sys.m == 2:
        found = _antidiagonal(*sys.inputs, sys.tol)
        if found is not None:
            report, lines = found
            return _nearly(lines, report, Reduction())
    return _verdict_controllable(sys, first, directions, failed_at)

