"""Controllability analysis and short-plan control synthesis for planar
discrete-time bilinear systems with two to four inputs."""

from .classify import (
    BilinearSystem,
    InvalidSystem,
    Reduction,
    SystemKind,
    Verdict,
    VerdictClass,
    analyze,
    apply_reduction,
)
from .mat2 import (
    DEFAULT_TOL,
    Direction,
    Mat2,
    SingularMatrix,
    TolerancePolicy,
    Vec2,
    ZeroVector,
    linearly_independent,
    real_eigen_directions,
    solve2,
)
from .quadform import (
    LineSetKind,
    LineUnion,
    form_scale,
    gram_form,
    zero_lines,
)
from .simulate import (
    ArityMismatch,
    ControlPlan,
    OracleReport,
    reachability_oracle,
    run,
    step,
    verify_plan,
)
from .steer import (
    EscapeFailed,
    InExcludedSet,
    NotCanonicalClass,
    NotControllablePair,
    SingularSubstitution,
    ZeroState,
    canonical_steer,
    escape_step,
    one_step,
    plan_transfer,
)
from .structure import (
    AllIsotropic,
    FormClass,
    NoCombinationFound,
    NotCommonEigenvector,
    StructureReport,
    antidiagonalize_pair,
    combine_inputs,
    common_real_eigenvector,
    triangularize,
    zero_bottom_row_pair,
)

__version__ = "0.1.0"
