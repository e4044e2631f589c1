"""Recoil classes of finite Coxeter groups, the covering structure of their
products, descent-algebra structure constants, and fiber monodromy."""

from .algebra import (
    convolution_oracle,
    expansion_rows,
    full_table,
    product_expand,
    table_json,
)
from .coxeter import CoxeterSpec, CoxeterSystem, build_system, positional_recoils
from .covering import (
    CoveringInstance,
    build_fibered_graph,
    iter_fibered_graphs,
    multiplicity_partition,
    verify_covering,
)
from .dot import covering_dot
from .errors import (
    CapExceeded,
    ClassInconstant,
    CoxeterError,
    FiberInconstant,
    InvalidSpec,
    InvariantViolation,
    NotAClassEdge,
    OracleMismatch,
    OrderViolation,
)
from .monodromy import (
    FiberAction,
    Loop,
    component_isomorphisms,
    lift_loops,
    loop_action,
    monodromy_report,
    relation_loops,
)
from .recoil import (
    RecoilClass,
    alpha_oneline,
    beta_oneline,
    conjugated_generator,
    recoil_class,
)
from .verify import CheckResult, run_invariant_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
