"""Exact arithmetic in generalized power-series fields over a
characteristic-p perfectoid base: certified norm comparison, Berkovich
point classification, Abhyankar bookkeeping, and the division-algorithm
machinery behind explicit surjections from perfectoid Tate algebras."""

from .valuegroup import (
    FreeRadius,
    Ordering,
    RadiusProfile,
    RationalRadius,
    Value,
    compare,
    in_sqrt_K,
    make_profile,
    value,
    value_mul,
    value_pow,
    zero_value,
)
from .series import (
    SeriesElement,
    add,
    frobenius,
    gauss_norm,
    invert,
    is_adapted,
    make_series,
    monomial,
    mul,
    pth_root,
    res_ge,
    sub,
)
from .tatealg import HomSpec, TateElement, evaluate, make_tate, t_add
from .berkovich import (
    DiskPoint,
    NestedPrefix,
    PointType,
    classify,
    point_invariants,
)
from .abhyankar import (
    FieldDescriptor,
    GaussCoordinate,
    TowerPoint,
    TypeIVCoordinate,
    check_main_theorem_bound,
    d_K,
    factor_temkin,
    is_abhyankar,
    is_semi_immediate,
)
from .gleason import (
    GleasonSchedule,
    SurjectionSpec,
    build_gminus,
    build_gmultivar,
    divide_step,
    reconstruct_preimage,
    standard_surjection,
    verify_schedule,
)

__version__ = "0.1.0"
