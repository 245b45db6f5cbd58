"""Exact lattice, fiber, and link-polynomial computations for the second
Veronese ideal and its principal-minor complete intersection."""

from .errors import (DegreeMismatch, IndexNotFinite, IndexOutOfRange,
                     Inhomogeneous, NotOdd, SizeCapExceeded, SizeMismatch,
                     VerolinkError, ZeroPolynomial)
from .exactlin import (IntMatrix, RatMatrix, SnfResult, hermite_normal_form,
                       invariant_factors, kernel_lattice, rational_nullspace,
                       rational_rank, same_column_space, smith_normal_form)
from .fibers import (FiberClassKey, class_count, class_key,
                     connectivity_classes, enumerate_fiber,
                     is_saturated_degree, minimal_saturated_fibers,
                     principal_moves)
from .ideals import (higher_veronese_gens, principal_minor_gens,
                     veronese_minor_gens)
from .link import (LinkGenerators, check_saturation_identity, check_syzygy,
                   link_generators, saturated_fiber_poly, saturation_exponent,
                   zonotope_poly)
from .poly import (SignCharacter, SparsePoly, Twisting, all_characters,
                   character_of_twisting, character_value,
                   in_principal_minor_ideal, in_twisted_veronese, multidegree,
                   normal_form, parse_poly, render_poly, twist,
                   twisting_from_character)
from .veronese import (Monomial, minor_vector, pair_count,
                       principal_minor_basis, veronese_matrix,
                       veronese_lattice_basis)
from .verify import (DegreePiece, VerificationReport, colon_membership,
                     group_algebra_subintersection, higher_torsion,
                     ideal_degree_piece, subintersection_degree_piece,
                     verify_decomposition, verify_link)

__version__ = "0.1.0"
