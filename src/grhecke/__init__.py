"""
grhecke: exact computations in the center of the Iwahori-Hecke algebra of
the symmetric group over Z[x], where x is the deformation parameter of the
quadratic relation T_i^2 = 1 + x T_i.

The package builds the Geck-Rouquier basis of class elements, computes
structure constants and monomial-expansion coefficients exactly, verifies
their positivity, parity, filtration, and rank-stability properties, and
fits structure constants as polynomials in the rank.
"""

from .coxeter import (
    Partition, Perm, compose, conjugacy_class, fits_rank, identity, inverse,
    length, minimal_length_elements, min_rep, modified_cycle_type,
    partitions_of, partitions_up_to, reduced_word,
)
from .polyring import (
    IntPoly, NPoly, RatPoly, interpolate_in_n, solve_linear,
)
from .hecke import (
    HeckeElt, e_sym, group_mul, is_central, jucys_murphy, m_sym, mul, t_basis,
    unit, zero,
)
from .center import (
    CentralCoords, CheckReport, GammaBasis, StructTable, build_struct_table,
    class_sum_oracle, expand_in_gamma, gamma_basis, gamma_element,
    m_sym_in_gamma, set_cache_dir, structure_constants,
    verify_elementary_sums, verify_gamma_characterization,
    verify_structure_constants, verify_zero_specialization,
)
from .universal import (
    FitResult, GradedTable, OneRowMatrixReport, check_graded_associativity,
    dominance_compare, fit_m_sym_coeff, fit_structure_constant,
    graded_product, graded_table, one_row_product_matrix, universal_constant,
)
from .errors import (
    BasisIncompleteError, ConstructionError, EmptyClassError,
    ExactDivisionError, InvalidInputError, InvariantViolationError,
    SingularSystemError,
)

__version__ = "0.1.0"
