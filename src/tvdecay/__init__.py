"""tvdecay: total-variation decay envelopes for 1-D ergodic diffusions.

Convention used throughout: mu ~ exp(-2V) dx, generator L = (1/2) d^2 - V' d,
carre du champ Gamma(f) = |f'|^2.
"""

__version__ = "0.1.0"

from .measures import (
    GridFunction,
    PotentialSpec,
    ProbabilityMeasure1D,
    build_measure,
    functionals,
    integrate,
    pinsker_check,
    tv_distance,
)
from .psi import (
    EtaProfile,
    PsiProfile,
    build_psi_from_eta,
    eta_entropy,
    eta_power,
    eta_quadratic,
    pinsker_constant,
)
from .inequalities import (
    BetaFunction,
    bakry_emery,
    beta_orlicz,
    capacity_condition_check,
    drift_tail_beta,
    muckenhoupt_poincare,
    weak_poincare_beta_from_tails,
)
from .envelopes import (
    DecayEnvelope,
    XiSpec,
    envelope_curvature,
    envelope_hellinger,
    envelope_ipsi,
    envelope_logsob,
    envelope_orlicz,
    envelope_poincare_l2,
    envelope_restricted_logsob,
    envelope_truncation_logsob,
    envelope_truncation_poincare,
    envelope_weak_logsob,
    envelope_weak_poincare,
    xi,
)
from .simulate import (
    DiagnosticsSeries,
    SimConfig,
    evolve,
    ou_exact_evolve,
    reverse_diagnostics,
)
