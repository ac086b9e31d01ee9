"""Exact-arithmetic engine for scalar-type singular vectors of generalized
Verma modules under the exceptional embedding of Lie G2 into so(7).

The pipeline: build so(7) in a rational Chevalley-Weyl matrix basis, realize
the 14-dimensional exceptional subalgebra, transport the module action into
differential operators on a five-variable polynomial ring, and solve the
resulting parametric linear systems exactly.  Everything is rational
arithmetic; there is no floating point anywhere.
"""

from .embedding import Embedding, embed_g2, inclusion_lattice, intersect_parabolic, parabolic
from .liealg import WeightVec, build_g2_root_data, build_so_odd, positive_combination, reflect
from .operators import DiffOperator, op_apply, op_compose
from .polynomials import XiPolynomial, parse_xi_polynomial
from .scalars import LAMBDA, LambdaPoly
from .solver import (
    SingularCertificate,
    SolverContext,
    hilbert_multiplicity,
    hilbert_series_check,
    invariants_of_degree,
    nonstandard_verdict,
    solve_even,
    solve_odd,
    verify_so7_singular,
)
from .verma import VermaModule, VermaVector

__version__ = "0.1.0"

__all__ = [
    "DiffOperator",
    "Embedding",
    "LAMBDA",
    "LambdaPoly",
    "SingularCertificate",
    "SolverContext",
    "VermaModule",
    "VermaVector",
    "WeightVec",
    "XiPolynomial",
    "build_g2_root_data",
    "build_so_odd",
    "embed_g2",
    "hilbert_multiplicity",
    "hilbert_series_check",
    "inclusion_lattice",
    "intersect_parabolic",
    "invariants_of_degree",
    "nonstandard_verdict",
    "op_apply",
    "op_compose",
    "parabolic",
    "parse_xi_polynomial",
    "positive_combination",
    "reflect",
    "solve_even",
    "solve_odd",
    "verify_so7_singular",
]
