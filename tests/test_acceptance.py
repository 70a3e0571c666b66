"""Acceptance criteria A1-A10.

Each test enforces one criterion at its stated tolerance and prints a
PASS line (visible with `pytest -s tests/test_acceptance.py`).
"""

import math
import time

import numpy as np
import pytest

import tvdecay as tv
from tvdecay.envelopes import XiSpec, xi
from tvdecay.measures import (
    eigen_perturbation,
    shifted_gaussian_density,
    step_density,
    tail_ratio_density,
)
from tvdecay.psi import build_psi_from_eta, eta_quadratic
from tvdecay.inequalities import muckenhoupt_poincare, spectral_gap
from tvdecay.simulate import reverse_diagnostics
from tvdecay._numerics import fit_log_slope, invert_increasing
from conftest import (psi_almost_linear, psi_entropy_classical, psi_quadratic_centered,
                      truncation_poincare_k_optimized)


@pytest.fixture(scope="module")
def mu():
    return tv.build_measure(tv.PotentialSpec.gaussian(), 4001)


def _report(tag, detail):
    print(f"{tag} PASS: {detail}")


def test_a1_ou_oracle_equivalence(mu):
    """A1: finite-difference evolve vs exact Mehler kernel, L1(mu) <= 1e-3."""
    start = time.time()
    shapes = {
        "smooth_bump": shifted_gaussian_density(mu, 0.5),
        "step": step_density(mu),
        "heavy_tail_clipped": tail_ratio_density(mu, 1.0, cap=50.0)[0],
    }
    cfg = tv.SimConfig(dt=1e-3, t_end=1.0, save_every=250)
    worst = 0.0
    for name, h0 in shapes.items():
        series = tv.evolve(mu, h0, cfg, keep_states=True)
        for t_target in (0.25, 0.5, 1.0):
            idx = int(np.argmin(np.abs(series.times - t_target)))
            exact = tv.ou_exact_evolve(mu, h0, series.times[idx])
            err = tv.integrate(mu, np.abs(series.states[idx] - exact))
            worst = max(worst, err)
            assert err <= 1e-3, (name, t_target, err)
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report("A1", f"worst L1(mu) error {worst:.2e} <= 1e-3 in {elapsed:.1f}s")


def test_a2_spectral_rates(mu):
    """A2: Var slope -2.00 +- 0.04 (C_P = 1/2), entropy slope -2.00 +- 0.10
    (C_LS = 1) for the 0.2 eigen-perturbation."""
    start = time.time()
    h0 = eigen_perturbation(mu, 0.2)
    cfg = tv.SimConfig(dt=1e-3, t_end=2.0, save_every=50)
    s = tv.evolve(mu, h0, cfg)
    w = (s.times >= 0.5) & (s.times <= 2.0)
    var_slope = fit_log_slope(s.times[w], s.variance[w])
    ent_slope = fit_log_slope(s.times[w], s.entropy[w])
    assert abs(var_slope + 2.0) <= 0.04, var_slope
    assert abs(ent_slope + 2.0) <= 0.10, ent_slope
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report("A2", f"Var slope {var_slope:.4f}, Ent slope {ent_slope:.4f} "
                  f"in {elapsed:.1f}s")


def test_a3_truncation_poincare_rate():
    """A3: Poincare truncation envelope rate -(q-1)/((2q-1) C_P) within 1%;
    numeric K-optimization within [0.5, 1.05] x the closed form."""
    C_P = 0.5
    details = []
    for q in (1.25, 1.5, 1.75):
        phi = lambda u, q=q: np.asarray(u, float) ** (q - 1.0)
        moment = 2.0 ** (q - 1.0)
        env = tv.envelope_truncation_poincare(C_P, phi, moment)
        ts = np.linspace(2.0, 12.0, 20)
        vals = np.array([env.raw_eval(t) for t in ts])
        slope = fit_log_slope(ts, vals)
        target = -(q - 1.0) / ((2.0 * q - 1.0) * C_P)
        assert abs(slope / target - 1.0) <= 0.01, (q, slope, target)
        for t, closed in zip(ts, vals):
            numeric = truncation_poincare_k_optimized(C_P, phi, moment, t)
            assert 0.5 * closed - 1e-12 <= numeric <= 1.05 * closed, (q, t)
        details.append(f"q={q}: {slope:.4f} vs {target:.4f}")
    _report("A3", "; ".join(details))


def test_a4_truncation_logsob_rate():
    """A4: log-Sobolev truncation envelope rate -2b/((2b+1) C_LS) within 1%."""
    C_LS = 1.0
    details = []
    for b, window in ((0.5, (1.0, 5.0)), (1.0, (1.0, 8.0))):
        phi = lambda u, b=b: np.maximum(
            np.log(np.maximum(np.asarray(u, float), 1e-300)), 0.0) ** b
        env = tv.envelope_truncation_logsob(C_LS, phi, 1.0)
        ts = np.linspace(*window, 20)
        slope = fit_log_slope(ts, [env.raw_eval(t) for t in ts])
        target = -2.0 * b / ((2.0 * b + 1.0) * C_LS)
        assert abs(slope / target - 1.0) <= 0.01, (b, slope, target)
        details.append(f"beta={b}: {slope:.4f} vs {target:.4f}")
    _report("A4", "; ".join(details))


def test_a5_curvature_rate():
    """A5: curvature envelope with rho = 1, beta(s) = s^{-q}: fitted slope
    over t in [5, 20] equals -rho/(2(1+q)) within 5%; q = 2/p reads as
    -rho p/(2(p+2))."""
    rho = 1.0
    details = []
    for q in (0.5, 1.0, 2.0):
        env = tv.envelope_curvature(rho, tv.BetaFunction.power(1.0, q))
        ts = np.linspace(5.0, 20.0, 16)
        slope = fit_log_slope(ts, [env.eval(t) for t in ts])
        target = -rho / (2.0 * (1.0 + q))
        assert abs(slope / target - 1.0) <= 0.05, (q, slope, target)
        p = 2.0 / q
        assert target == pytest.approx(-rho * p / (2.0 * (p + 2.0)), rel=1e-12)
        details.append(f"q={q}: {slope:.4f} vs {target:.4f}")
    _report("A5", "; ".join(details))


def test_a6_domination(mu):
    """A6: calibrated Thm 2.1 / Cor 2.2 / Thm 2.7 / curvature envelopes
    dominate the measured TV at 100% of saves; C_P x 0.1 fails domination."""
    start = time.time()
    h0 = step_density(mu)
    cfg = tv.SimConfig(dt=1e-3, t_end=3.0, save_every=50)
    series = tv.evolve(mu, h0, cfg)
    bracket = muckenhoupt_poincare(mu)
    be = tv.bakry_emery(mu)
    C_P = bracket.C_P_interval[1]
    q = 1.5
    phi = lambda u: np.asarray(u, float) ** (q - 1.0)
    envelopes = {
        "thm_poincare_l2": tv.envelope_poincare_l2(
            C_P, math.sqrt(tv.integrate(mu, (h0 - 1.0) ** 2))),
        "cor_truncation": tv.envelope_truncation_poincare(
            C_P, phi, tv.integrate(mu, h0 * phi(h0))),
        "thm_logsob": tv.envelope_logsob(
            be.C_LS, tv.integrate(mu, np.where(h0 > 0,
                                               h0 * np.log(np.maximum(h0, 1e-300)),
                                               0.0))),
        "curvature": tv.envelope_curvature(be.rho, tv.BetaFunction.constant(C_P)),
    }
    fractions = {}
    for name, env in envelopes.items():
        cal = env.calibrate(series.tv[0])
        bounds = np.array([cal.eval(t) for t in series.times])
        fractions[name] = float(np.mean(bounds >= series.tv - 1e-12))
        assert fractions[name] == 1.0, (name, fractions[name])
    bad = tv.envelope_poincare_l2(
        0.1 * C_P, math.sqrt(tv.integrate(mu, (h0 - 1.0) ** 2))).calibrate(series.tv[0])
    bad_bounds = np.array([bad.eval(t) for t in series.times])
    bad_fraction = float(np.mean(bad_bounds >= series.tv - 1e-12))
    assert bad_fraction < 1.0, bad_fraction
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report("A6", f"domination {fractions}; negative control "
                  f"{bad_fraction:.3f} < 1 in {elapsed:.1f}s")


def test_a7_pinsker_suite():
    """A7: 10^4 random 5-atom pairs x 3 psi profiles: zero violations of
    TV <= c_psi sqrt(I_psi)."""
    start = time.time()
    rng = np.random.default_rng(2024)
    n = 10_000
    P = rng.random((n, 5)) + 1e-3
    P /= P.sum(axis=1, keepdims=True)
    Q = rng.random((n, 5)) + 1e-3
    Q /= Q.sum(axis=1, keepdims=True)
    ratio = Q / P
    tv_dist = np.abs(Q - P).sum(axis=1)
    profiles = (build_psi_from_eta(eta_quadratic()), psi_entropy_classical(),
                psi_almost_linear())
    constants = {}
    for psi in profiles:
        i_psi = np.maximum((np.asarray(psi.psi(ratio)) * P).sum(axis=1), 0.0)
        violations = int(np.sum(tv_dist > psi.c_pinsker * np.sqrt(i_psi) + 1e-9))
        assert violations == 0, (psi.name, violations)
        constants[psi.name] = round(psi.c_pinsker, 5)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report("A7", f"0 violations across 3x{n} pairs, c_psi = {constants}, "
                  f"{elapsed:.1f}s")


def test_a8_sandwich_monotonicity_dissipation(mu):
    """A8: Hellinger sandwich exact on all runs; TV/Var/Ent/I_psi/d_H/V/E
    non-increasing (slack 1e-6); dissipation identity within 2% at interior
    saves."""
    psi = psi_quadratic_centered()
    shapes = {
        "step": step_density(mu),
        "eigen": eigen_perturbation(mu, 0.2),
        "heavy": tail_ratio_density(mu, 1.0, cap=50.0)[0],
    }
    cfg = tv.SimConfig(dt=1e-3, t_end=2.0, save_every=50)
    for name, h0 in shapes.items():
        s = tv.evolve(mu, h0, cfg, psi=psi)
        assert np.all(s.hellinger <= 2.0 * s.tv + 1e-9), name
        assert np.all(2.0 * s.tv <= 4.0 * np.sqrt(s.hellinger) + 1e-9), name
        for col_name in ("tv", "hellinger", "variance", "entropy", "i_psi",
                         "v_reverse", "e_reverse"):
            col = getattr(s, col_name)
            assert np.all(np.diff(col) <= 1e-6), (name, col_name)
        rd = reverse_diagnostics(s)
        assert rd.v_monotone and rd.e_monotone, name
    # dissipation identity on the smooth shape at interior saves
    s = tv.evolve(mu, shapes["eigen"], cfg, psi=psi)
    inner = slice(2, -2)
    lhs, rhs = s.dissipation_lhs[inner], s.dissipation[inner]
    rel = np.max(np.abs(lhs + rhs) / (np.abs(rhs) + 1e-8))
    assert np.all(np.abs(lhs + rhs) <= 0.02 * np.abs(rhs) + 1e-8)
    _report("A8", f"sandwich + monotone on 3 shapes; dissipation max rel "
                  f"{rel:.4f} <= 0.02")


def test_a9_inverse_residuals():
    """A9: inverse-map forward residuals <= 1e-8 relative over 10^3 random
    calls; xi(t) = e^{-t} for beta == 1 to 1e-10."""
    spec = XiSpec(beta=tv.BetaFunction.constant(1.0))
    worst_exp = 0.0
    for t in np.linspace(0.05, 20.0, 60):
        worst_exp = max(worst_exp, abs(xi(spec, t) - math.exp(-t)))
    assert worst_exp <= 1e-10
    rng = np.random.default_rng(97)
    worst_resid = 0.0
    for k in range(1000):
        mode = k % 5
        if mode == 0:  # phitilde(u) = sqrt(u) phi(u), phi power
            q = rng.uniform(1.1, 3.0)
            fn = lambda u: np.sqrt(u) * u ** (q - 1.0)
        elif mode == 1:  # theta(u) = u phi(u)
            q = rng.uniform(1.1, 3.0)
            fn = lambda u: u * u ** (q - 1.0)
        elif mode == 2:  # phibar(u) = phi(u) sqrt(log u) on u > 1
            b = rng.uniform(0.3, 1.5)
            fn = lambda u: (np.log(1.0 + u) ** b) * np.sqrt(np.log(1.0 + u))
        elif mode == 3:  # etatilde(u) = u^{1/4} phi(u)
            fn = lambda u: u ** 0.25 * (1.0 + u)
        else:  # gamma(u) = beta(u)/u for power beta, inverted downward
            c = math.exp(rng.uniform(-1.0, 1.0))
            u_star = math.exp(rng.uniform(math.log(1e-6), math.log(0.5)))
            y = c / u_star ** 2
            u = invert_increasing(lambda s: -(c / s ** 2), np.array([-y]), 1e-10, 1.0)[0]
            resid = abs(c / u ** 2 - y) / y
            worst_resid = max(worst_resid, resid)
            assert resid <= 1e-8
            continue
        # draw the target from the forward image so the call is well-posed
        u_star = math.exp(rng.uniform(math.log(1e-3), math.log(1e5)))
        y = fn(u_star)
        u = invert_increasing(fn, np.array([y]), 1e-6, 1e6)[0]
        resid = abs(fn(u) - y) / max(y, 1.0)
        worst_resid = max(worst_resid, resid)
        assert resid <= 1e-8
    # xi residuals across random beta families
    for _ in range(200):
        q = rng.uniform(0.2, 2.5)
        beta = tv.BetaFunction.power(math.exp(rng.uniform(-1, 1)), q)
        t = math.exp(rng.uniform(0.0, 4.0))
        s = xi(XiSpec(beta=beta), t)
        resid = abs(float(beta(np.asarray(s))) * math.log(1.0 / s) - t) / max(1.0, t)
        worst_resid = max(worst_resid, resid)
        assert resid <= 1e-8
    _report("A9", f"xi exp error {worst_exp:.2e} <= 1e-10; worst inverse "
                  f"residual {worst_resid:.2e} <= 1e-8")


def test_a10_muckenhoupt_brackets(mu):
    """A10: [B, 4B] contains the known Poincare constants (Gaussian 1/2,
    double-exponential 1), cross-checked by the Rayleigh quotient of the
    discrete generator's top eigenfunction."""
    br_g = muckenhoupt_poincare(mu)
    assert br_g.C_P_interval[0] <= 0.5 <= br_g.C_P_interval[1]
    mu_e = tv.build_measure(tv.PotentialSpec.power(1.0), 4001)
    br_e = muckenhoupt_poincare(mu_e)
    assert br_e.C_P_interval[0] <= 1.0 <= br_e.C_P_interval[1] + 1e-9
    for m, br, known in ((mu, br_g, 0.5), (mu_e, br_e, 1.0)):
        best = spectral_gap(m).rayleigh
        assert best <= br.C_P_interval[1] * (1.0 + 1e-9)
        assert best >= 0.9 * br.B
        assert best <= known * (1.0 + 1e-6)
    _report("A10", f"gaussian {br_g.C_P_interval} contains 0.5; "
                   f"double-exponential {br_e.C_P_interval} contains 1.0")
