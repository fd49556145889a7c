"""Global minimization of multivariate polynomials.

A sum-of-squares semidefinite relaxation computes certified lower bounds and
usually the exact minimum with a minimizer; an exact Groebner-basis
companion-matrix oracle cross-checks it algebraically.  The same machinery
searches for bounded-degree infeasibility witnesses of semialgebraic systems
and computes LP lower bounds over polytopes.
"""

from .bench import BenchmarkPlan, BenchmarkReport, run_benchmark
from .groebner import (
    GroebnerBasis,
    MultiplicationMatrix,
    StandardBasis,
    characteristic_polynomial,
    critical_ideal_generators,
    is_groebner,
    minimize_by_eigenvalues,
    multiplication_matrix,
    normal_form,
    standard_monomials,
)
from .handelman import (
    HandelmanBound,
    PolytopeDescription,
    handelman_bound,
    handelman_ladder,
)
from .linalg import EigenResult, eig_general, psd_factor, solve_spd, sym_eig
from .poly import (
    FamilyParams,
    Polynomial,
    parse,
    random_family_instance,
    scale_homogeneous,
    sum_of_squared_residuals,
)
from .psatz import (
    NotFoundAtDegree,
    SemialgebraicSystem,
    Witness,
    bounded_minimization,
    find_witness,
    real_feasibility_bound,
    verify_witness,
)
from .refine import local_refine
from .sdp import (
    SdpProblem,
    SdpSolution,
    SdpStatus,
    check_duality,
    read_sdpa,
    solve,
    solve_lp,
    write_sdpa,
)
from .sos import (
    MINUS_INFINITY,
    MonomialVector,
    SosCertificate,
    build_gram_sdp,
    extract_certificate,
    extract_minimizer,
    higher_degree_bound,
    minimize,
    size_tables,
    sos_lower_bound,
)

__version__ = "0.1.0"
