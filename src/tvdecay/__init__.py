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
    hellinger_distance,
    integrate,
    pinsker_check,
    tv_distance,
)
from .psi import (
    EtaProfile,
    PsiProfile,
    build_almost_linear_eta,
    build_psi_from_eta,
    eta_entropy,
    eta_power,
    eta_quadratic,
    f_bar,
    orlicz_gauge_N,
    pinsker_constant,
    psi_from_functions,
)
from .inequalities import (
    BetaFunction,
    PropagatedBetaFamily,
    bakry_emery,
    beta_curvature_propagated,
    beta_hellinger_converse,
    beta_hellinger_forward,
    beta_hellinger_to_wp,
    beta_orlicz,
    beta_sp_from_F,
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
