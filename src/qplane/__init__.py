"""Exact linear algebra over cyclotomic and rational-function fields for
q-commuting matrix pairs: commutant spaces, component indices of the module
variety, chain decompositions, and GIT trace invariants.
"""

from .errors import (BadIndex, DegeneratePoint, DimensionMismatch,
                     DivisionByZero, EigenvaluesNotFound, LengthMismatch,
                     MixedContext, NotSquare, ParseError, QPlaneError,
                     RelationViolated, SingularConjugator, UnsupportedShape,
                     ZeroArgument, ZeroElement)
from .scalars import (FieldContext, INFINITE, QScalar, canonical_key,
                      cyclotomic_polynomial, format_scalar, parse_scalar,
                      q_equivalent, q_orbit, substitute_q_inverse)
from .matrices import (QMatrix, char_poly, conjugate, direct_sum, inverse,
                       kernel_basis, rank)
from .jordan import (JordanSpec, block_jordan, check_partition, jordan_block,
                     jordan_data, realize, transpose_partition)
from .chains import (ChainDecomposition, associated_sequence, chain_decompose,
                     partition_count, restricted_partition_count)
from .commutant import (HomExtReport, MatrixPair, hom_ext, predicted_commutant_dim,
                        q_layered, qcommutant_basis, sylvester_operator)
from .components import (ComponentIndex, count_ML, dim_component,
                         dim_component_via_CBS, enumerate_ML,
                         parametrization_jacobian_rank, sample_point,
                         theta_index, theta_point)
from .classify import classify
from .git_quotient import (GitIndex, TraceFingerprint, count_TPL, dim_git,
                           enumerate_TPL, git_index_of_stratum, semisimplify,
                           trace_fingerprint)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
