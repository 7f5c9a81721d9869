"""Exact Weyl-closure membership for linear PDE systems with polynomial coefficients.

Decides whether an equation vanishes on all local analytic solutions of a
system, produces a checkable identity ``w*q = sum_j h_j*p_j`` as a
certificate, and computes Riquier bases, jet-constraint matrices and
truncated formal power-series solutions, all in exact arithmetic over Q or
Q(i).
"""

from .closure import (
    MembershipResult,
    Witness,
    lemma1_solve,
    membership_via_lemma1,
    oracle_division_member_1d,
    verify_witness,
    weyl_closure_member,
)
from .errors import (
    DegreeExceeded,
    EvaluationAtPole,
    InvalidInput,
    ParseError,
    SBelowS0,
    WeylClosureError,
    ZeroOperator,
)
from .formatting import format_operator, format_polynomial, format_rational, format_scalar
from .jets import (
    ConstraintSystem,
    basis_denominators,
    check_jet_constraints,
    constraint_matrix,
    constraint_nullspace,
    formal_solve,
    pick_regular_point,
    solution_space_dim,
)
from .operators import (
    Derivative,
    Jet,
    OperatorVector,
    apply_to_jet,
    coefficient_vector,
    derivatives_up_to,
    left_multiply_by_d,
    scalar_operator_product,
)
from .parsing import parse_operator, parse_rational
from .polynomials import Polynomial, RationalFunction
from .ranking import ReductionTrace, reduce_full
from .riquier import DerivativeClass, RiquierBasis, complete_to_riquier_basis
from .scalars import GaussianRational

__all__ = [
    "ConstraintSystem", "DegreeExceeded", "Derivative", "DerivativeClass",
    "EvaluationAtPole", "GaussianRational", "InvalidInput", "Jet",
    "MembershipResult", "OperatorVector", "ParseError", "Polynomial",
    "RationalFunction", "ReductionTrace", "RiquierBasis", "SBelowS0",
    "WeylClosureError", "Witness", "ZeroOperator", "apply_to_jet",
    "basis_denominators", "check_jet_constraints", "coefficient_vector",
    "complete_to_riquier_basis", "constraint_matrix", "constraint_nullspace",
    "derivatives_up_to", "formal_solve", "format_operator", "format_polynomial",
    "format_rational", "format_scalar", "left_multiply_by_d", "lemma1_solve",
    "membership_via_lemma1", "oracle_division_member_1d", "parse_operator",
    "parse_rational", "pick_regular_point", "reduce_full",
    "scalar_operator_product", "solution_space_dim", "verify_witness",
    "weyl_closure_member",
]
