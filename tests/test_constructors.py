"""The constructors of the package's records keep their parameters.

Every call site passes these records' fields by position or keyword, so a
dropped default or a reordered parameter breaks callers that the golden
outputs may not reach.  The table below is each constructor's parameters,
in order, with their defaults, as they stood when the records were
dataclasses.  `EnvelopeFamily.extras` defaulted to a fresh empty dict, which
the constructor now makes from its default None.  `Scenario` takes its start
as one callable, `initial`, in place of `initial_family`, `initial_params`
and the `clipped_mass` that building the start used to set, and its
envelopes as {name: builder}, `envelopes`, in place of `envelope_names`.
`BetaFunction` lost its unread `s_min`.
"""

import inspect

import pytest

from tvdecay import config, envelopes, inequalities, measures, psi, simulate

REQUIRED = inspect.Parameter.empty
FUNCTIONALS = [("tv", REQUIRED), ("hellinger", REQUIRED), ("variance", REQUIRED),
               ("entropy", REQUIRED), ("i_psi", REQUIRED), ("dissipation", REQUIRED),
               ("v_reverse", REQUIRED), ("e_reverse", REQUIRED), ("mass", REQUIRED),
               ("min_h", REQUIRED)]

SIGNATURES = {
    (config, "EnvelopeInputs"): [("mu", REQUIRED), ("h0", REQUIRED), ("f0", REQUIRED),
                                 ("eta", REQUIRED), ("C_P", REQUIRED), ("C_LS", REQUIRED),
                                 ("rho", REQUIRED), ("capacity", REQUIRED)],
    (config, "EnvelopeFamily"): [("build", REQUIRED), ("phi", None), ("beta", None),
                                 ("extras", None)],
    (config, "Scenario"): [("config", REQUIRED), ("potential", REQUIRED),
                           ("n_points", REQUIRED), ("tail_tol", REQUIRED),
                           ("initial", REQUIRED), ("sim", REQUIRED), ("eta", REQUIRED),
                           ("psi_a", REQUIRED), ("envelopes", REQUIRED),
                           ("calibrate", REQUIRED), ("analysis", REQUIRED), ("seed", 0)],
    (envelopes, "XiSpec"): [("beta", REQUIRED), ("log_numerator", 1.0), ("t_scale", 1.0)],
    (envelopes, "DecayEnvelope"): [("name", REQUIRED), ("params", REQUIRED),
                                   ("bound", REQUIRED), ("scale", 1.0)],
    (inequalities, "BetaFunction"): [("form", REQUIRED), ("params", REQUIRED),
                                     ("evaluate", REQUIRED), ("s_max", 1.0),
                                     ("monotonicity_violations", 0)],
    (inequalities, "PoincareBracket"): [("B_plus", REQUIRED), ("B_minus", REQUIRED),
                                        ("B", REQUIRED), ("C_P_interval", REQUIRED)],
    (inequalities, "SpectralGap"): [("gap", REQUIRED), ("C_P", REQUIRED), ("f", REQUIRED),
                                    ("rayleigh", REQUIRED)],
    (inequalities, "TailBetaResult"): [("b", REQUIRED), ("B", REQUIRED),
                                       ("accepted", REQUIRED), ("C_range", REQUIRED),
                                       ("beta_wp", REQUIRED)],
    (inequalities, "BakryEmery"): [("rho", REQUIRED), ("C_LS", REQUIRED)],
    (inequalities, "CapacityCheck"): [("HprimeF_sup_right", REQUIRED),
                                      ("HprimeF_sup_left", REQUIRED), ("C_cap", REQUIRED),
                                      ("C_eta_bound", REQUIRED),
                                      ("alt_remark_ratio_sup", REQUIRED),
                                      ("alt_remark_flag", REQUIRED)],
    (measures, "PotentialSpec"): [("family", REQUIRED), ("params", REQUIRED),
                                  ("V", REQUIRED), ("V2", REQUIRED), ("domain", None)],
    (measures, "ProbabilityMeasure1D"): [("grid", REQUIRED), ("pdf", REQUIRED),
                                         ("log_partition", REQUIRED), ("cdf", REQUIRED),
                                         ("median", REQUIRED), ("v_values", REQUIRED),
                                         ("quadrature", REQUIRED), ("spec", None)],
    (measures, "Functionals"): FUNCTIONALS,
    (measures, "PinskerCheck"): [("tv", REQUIRED), ("rhs", REQUIRED), ("holds", REQUIRED)],
    (psi, "EtaProfile"): [("eta", REQUIRED), ("eta_prime", REQUIRED),
                          ("eta_second", REQUIRED), ("b", 0.0), ("name", "eta")],
    (psi, "PsiProfile"): [("a", REQUIRED), ("psi", REQUIRED), ("psi_prime", REQUIRED),
                          ("psi_second", REQUIRED), ("name", "psi")],
    (simulate, "SimConfig"): [("dt", REQUIRED), ("t_end", REQUIRED),
                              ("scheme", "implicit_euler"), ("save_every", 1)],
    (simulate, "DiagnosticsSeries"): FUNCTIONALS + [
        ("times", REQUIRED), ("dissipation_lhs", REQUIRED),
        ("reverse_transformed", False), ("states", None)],
    (simulate, "ReverseDiagnostics"): [("times", REQUIRED), ("V", REQUIRED), ("E", REQUIRED),
                                       ("v_monotone", REQUIRED), ("e_monotone", REQUIRED)],
}


@pytest.mark.parametrize("module, name", list(SIGNATURES),
                         ids=[f"{m.__name__}.{n}" for m, n in SIGNATURES])
def test_constructor_parameters(module, name):
    params = inspect.signature(getattr(module, name)).parameters.values()
    # the default's type too, so that 0 does not pass for 0.0
    assert [(p.name, p.default, type(p.default)) for p in params] == [
        (n, d, type(d)) for n, d in SIGNATURES[module, name]]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def test_envelope_family_extras_default_to_a_fresh_empty_dict():
    one, two = config.EnvelopeFamily(print), config.EnvelopeFamily(print)
    assert one.extras == {} and one.extras is not two.extras
