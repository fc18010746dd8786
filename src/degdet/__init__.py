"""degdet: exact degree of the Dieudonne determinant over prime fields.

The solver computes deg Det of sum_k A_k x_k t^{c_k} by certificate descent
with cost scaling and low-degree truncation, decides singular instances with
the certificate oracle on the constant pencil (returning the verified
witness), and ships independent oracles (commutative interpolation, blow-up
reduction, Hungarian matching, Newton-support LP), a multi-prime rational
pipeline, and the 2x2-partitioned specialization that extracts maximum-weight
consistent 2-matchings.
"""

from types import ModuleType as _ModuleType

from .errors import (AllPrimesFailedError, DegDetError, DimensionMismatchError,
                     ExtractionFailedError, FormatError, IterationBoundExceededError,
                     NcRankGapError, NonPrimeError, PositiveDegreeError,
                     PrecisionUnsupportedError, RetryExhaustedError, SizeLimitError)
from .field_linalg import (DEFAULT_PRIME, FieldMatrix, PrimeModulus, Subspace,
                           column_space, is_prime, nullspace, preimage, rref, span_union)
from .infinity import MINUS_INFINITY, MinusInfinity, is_minus_infinity
from .instances import (Instance, IntegerInstance, PartitionedInstance, gen_2x2,
                        gen_bipartite, gen_dense, gen_integer, gen_rank1, load,
                        random_bipartite_weights, random_rank_profile, save)
from .laurent import (LaurentMatrix, LaurentPencil, leading, scale_tinv,
                      square_substitute, step_update, truncate)
from .ncrank import Certificate, ConstPencil, build_blowup, is_nc_nonsingular, solve_R
from .oracles import (INFEASIBLE, NewtonSupport, degdet_blowup, degdet_commutative,
                      hungarian, newton_small)
from .partitioned import TwoMatching, enumerate_perfect, is_consistent, solve_and_extract, to_instance
from .rational import (PrimeBudget, RationalReport, bound_log2, first_primes,
                       prime_budget, solve_rational, solve_rational_report)
from .solver import (SolveOptions, SolveReport, normalize_costs, run_phase, solve,
                     solve_with_final_pencil)

__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))
__version__ = "0.1.0"
