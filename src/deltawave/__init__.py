"""1D Euler equations with a point source fixed at the origin.

The source induces a zero-speed discontinuity whose sides satisfy a scaled
flux jump. This package provides the exact wave curves of that jump, an
exact solver and sampler for the resulting Riemann problems, a
structure-predicting approximate Riemann solver, and a third-order
discontinuous Galerkin scheme whose origin flux keeps exact equilibria
exactly.
"""

from .cases import TestCase, all_cases, get_case
from .classical import ClassicalFan, sample_classical, sample_classical_primitives, solve_classical
from .errors import (
    ConfigError,
    DeltawaveError,
    NotSolvableError,
    RootBracketError,
    SchemeError,
    UnavailableFluxError,
    VacuumError,
)
from .fluxes import FluxPair, Scheme, kt_flux, llf_flux, solver_flux
from .gas import (
    GasState,
    SourceCoefficients,
    eigenvalues,
    evaluate_source,
    from_conserved,
    physical_flux,
    to_conserved,
)
from .stationary import (
    Branch,
    CriticalMachNumbers,
    StationaryPair,
    admissible,
    choked_downstream,
    critical_mach_numbers,
    downstream_state,
    jump_residual,
    upstream_state,
)
from .structure import (
    SolutionStructure,
    SolverOutput,
    SourceFan,
    approximate_solve,
    compose_reference_fan,
    predict_structure,
    sample_source_fan,
    sample_source_primitives,
    subsonic_passage_bracket,
    velocity_mismatch,
)

__version__ = "0.1.0"
