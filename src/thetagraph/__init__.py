"""Prime coprime graphs of finite groups.

Build the graph whose vertices are the elements of a finite group, with an
edge whenever the gcd of two element orders is 1 or prime; decide its
structural properties exactly; and compare closed-form signless Laplacian
spectra against an independent eigensolver.
"""

from .analysis import analyze_group, spectrum_section
from .graph import ThetaGraph, build_theta, export_dot, export_json, prime_order_set
from .groups import (
    FAMILIES,
    GroupSpec,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    enumerate_groups,
    from_orders,
    heisenberg,
    order_profile,
)
from .properties import (
    ConnectivityResult,
    CrossCheckError,
    HamiltonianVerdict,
    components_after_removal,
    diameter,
    domination_number,
    girth,
    is_complete,
    is_connected,
    is_eulerian,
    is_hamiltonian,
    is_planar,
    is_singleton_dominating,
    open_problem_classify,
    validate_cycle,
    vertex_connectivity,
)
from .spectra import (
    SpectrumResult,
    Surd,
    UnsupportedFamilyError,
    build_Q,
    closed_form_spectrum,
    eig_sym,
    order_class_spectrum,
    quotient_matrix,
    quotient_spectrum,
    spectra_equal,
    spectrum_contains,
)

__version__ = "0.1.0"
