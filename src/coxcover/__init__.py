"""Recoil classes of finite Coxeter groups, the covering structure of their
products, descent-algebra structure constants, and fiber monodromy."""

from .algebra import (
    AlgebraElement,
    StructureTable,
    TableRow,
    algebra_product,
    convolution_oracle,
    expansion_rows,
    full_table,
    product_expand,
    structure_constant,
    x_from_y,
    y_from_x,
)
from .coxeter import CoxeterSpec, CoxeterSystem, build_system, positional_recoils
from .covering import (
    CoveringInstance,
    CoveringReport,
    build_fibered_graph,
    class_cycle_rank,
    cycle_rank,
    iter_fibered_graphs,
    multiplicity_partition,
    unique_lift_edge,
    verify_covering,
)
from .dot import class_graph_dot, covering_dot
from .errors import (
    CapExceeded,
    ClassInconstant,
    CoxeterError,
    FiberInconstant,
    InvalidSpec,
    InvariantViolation,
    NotAClassEdge,
    NotADescent,
    OracleMismatch,
    OrderViolation,
)
from .monodromy import (
    FiberAction,
    Loop,
    MonodromyReport,
    braid_loop_exists_positional,
    component_isomorphisms,
    conjugate_action,
    lift_path,
    loop_action,
    monodromy_report,
    relation_loops,
)
from .recoil import (
    RecoilClass,
    alpha_oneline,
    beta_oneline,
    class_extremes,
    conjugated_generator,
    recoil_class,
)
from .verify import CheckResult, run_invariant_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
