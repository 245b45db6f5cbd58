"""Exact lattice, fiber, and link-polynomial computations for the second
Veronese ideal and its principal-minor complete intersection."""

from .errors import SizeCapExceeded
from .exactlin import (IntMatrix, hermite_normal_form, invariant_factors,
                       kernel_lattice, rational_nullspace, rational_rank,
                       same_column_space, smith_normal_form)
from .fibers import (class_count, class_key, connectivity_classes,
                     enumerate_fiber, is_saturated_degree,
                     minimal_saturated_fibers, principal_moves)
from .ideals import (higher_veronese_gens, principal_minor_gens,
                     veronese_minor_gens)
from .link import (check_saturation_identity, check_syzygy, link_generators,
                   saturated_fiber_poly, saturation_exponent, zonotope_poly)
from .poly import (SparsePoly, all_characters, character_of_twisting,
                   character_spec, character_value, in_principal_minor_ideal,
                   in_twisted_veronese, multidegree, normal_form, parse_poly,
                   render_poly, twist, twisting_from_character)
from .veronese import (minor_vector, monomial, monomial_degree,
                       monomial_text, pair_count, principal_minor_basis,
                       veronese_matrix, veronese_lattice_basis)
from .verify import (VerificationReport, colon_membership,
                     group_algebra_subintersection, higher_torsion,
                     verify_decomposition, verify_link)

__version__ = "0.1.0"
