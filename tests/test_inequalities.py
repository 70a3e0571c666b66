import math
import tracemalloc

import numpy as np
import pytest

import tvdecay as tv
from tvdecay.errors import (
    AsymmetricInput,
    BadExponent,
    DivergentSup,
    NonYoungWarning,
)
from tvdecay.inequalities import (
    BetaFunction,
    _legendre_conjugate,
    bakry_emery,
    beta_orlicz,
    capacity_condition_check,
    drift_tail_beta,
    muckenhoupt_poincare,
    spectral_gap,
    weak_poincare_beta_from_tails,
)
from tvdecay.measures import generator
from tvdecay.psi import EtaProfile, eta_power
from tvdecay._numerics import fit_loglog_slope, trapezoid_weights

from conftest import legendre_conjugate_brute


def _normalized(mu, g):
    return g / np.sum(trapezoid_weights(mu.grid) * g)


class TestBetaFunction:
    def test_forms_evaluate(self):
        s = np.geomspace(1e-6, 0.5, 50)
        assert np.allclose(BetaFunction.power(2.0, 1.5)(s), 2.0 * s ** -1.5)
        assert np.allclose(BetaFunction.logpower(3.0, 0.5)(s),
                           3.0 * np.log(2.0 / s) ** 0.5)
        assert np.allclose(BetaFunction.constant(4.0)(s), 4.0)

    def test_every_form_non_increasing(self):
        rng = np.random.default_rng(31)
        s = np.geomspace(1e-4, 1.0, 2000)
        betas = [
            BetaFunction.power(1.7, 0.8),
            BetaFunction.logpower(2.0, 1.3),
            BetaFunction.constant(0.9),
            BetaFunction.tabulated(s, np.exp(1.0 / np.sqrt(s))),
            BetaFunction.affine(BetaFunction.power(1.0, 1.0), 0.5, 0.2),
        ]
        for beta in betas:
            # a table's beta is probed from its first s
            lo = beta.params["s"][0] if beta.form == "tabulated" else 1e-10
            pairs = rng.uniform(np.log(lo), np.log(beta.s_max), size=(1000, 2))
            s1 = np.exp(pairs.min(axis=1))
            s2 = np.exp(pairs.max(axis=1))
            assert np.all(beta(s1) >= beta(s2) - 1e-12 * np.abs(beta(s1)))

    def test_tabulated_monotonization(self):
        s = np.array([0.01, 0.1, 0.2, 0.5])
        vals = np.array([5.0, 1.0, 2.0, 0.5])  # one violation at 0.1 < 2.0
        beta = BetaFunction.tabulated(s, vals)
        assert beta.monotonicity_violations == 1
        assert float(beta(0.1)) == pytest.approx(2.0)

    def test_bad_inputs(self):
        with pytest.raises(BadExponent):
            BetaFunction.power(-1.0, 1.0)
        s = np.geomspace(1e-12, 1.0, 2000)
        with np.errstate(over="ignore"), pytest.raises(BadExponent):
            BetaFunction.tabulated(s, np.exp(2.0 / np.sqrt(s)))  # overflows to inf


class TestMuckenhoupt:
    def test_gaussian_bracket_contains_half(self, gaussian_measure):
        br = muckenhoupt_poincare(gaussian_measure)
        lo, hi = br.C_P_interval
        assert lo <= 0.5 <= hi
        # symmetric measure: the two one-sided sups agree
        assert abs(br.B_plus - br.B_minus) <= 1e-6 * br.B

    def test_exponential_bracket_contains_one(self, exponential_measure):
        br = muckenhoupt_poincare(exponential_measure)
        lo, hi = br.C_P_interval
        assert lo <= 1.0 <= hi + 1e-9

    def test_rayleigh_cross_check(self, gaussian_measure, exponential_measure):
        # every trial function certifies C_P >= Var/Dirichlet; none may
        # certify beyond 4B, and the top eigenfunction reaches at least 0.9 B
        for mu in (gaussian_measure, exponential_measure):
            br = muckenhoupt_poincare(mu)
            best = spectral_gap(mu).rayleigh
            assert best <= br.C_P_interval[1] * (1.0 + 1e-9)
            assert best >= 0.9 * br.B


class TestSpectralGap:
    @pytest.mark.parametrize("spec", [
        tv.PotentialSpec.gaussian(), tv.PotentialSpec.power(1.0),
        tv.PotentialSpec.power(4.0), tv.PotentialSpec.power_log(1.5)],
        ids=["gaussian", "exp1", "quartic", "power_log1.5"])
    def test_inside_muckenhoupt_bracket(self, spec):
        mu = tv.build_measure(spec, 4001)
        lo, hi = muckenhoupt_poincare(mu).C_P_interval
        sg = spectral_gap(mu)
        assert lo <= sg.C_P <= hi
        # the eigenfunction's np.gradient quotient, a certified lower bound on
        # C_P, agrees with the discrete Dirichlet form's 1/(2 gap)
        assert sg.rayleigh >= 0.9 * lo
        assert sg.rayleigh == pytest.approx(sg.C_P, rel=1e-3)

    def test_gaussian_exact(self, gaussian_measure):
        sg = spectral_gap(gaussian_measure)
        assert len(gaussian_measure.grid) == 4001
        assert sg.C_P == pytest.approx(0.5, abs=1e-5)
        assert sg.rayleigh == pytest.approx(0.5, abs=1e-5)

    def test_eigenfunction_is_centered_mode(self, exponential_measure):
        mu = exponential_measure
        sg = spectral_gap(mu)
        lower, diag, upper = generator(mu)
        lf = diag * sg.f
        lf[:-1] += upper[:-1] * sg.f[1:]
        lf[1:] += lower[1:] * sg.f[:-1]
        # L f = -gap f, and f is orthogonal to constants in l^2(mu)
        scale = np.sqrt(tv.integrate(mu, sg.f ** 2))
        assert np.sqrt(tv.integrate(mu, (lf + sg.gap * sg.f) ** 2)) <= 1e-8 * scale
        assert abs(tv.integrate(mu, sg.f)) <= 1e-8 * scale

    def test_underflowing_tails(self):
        # V = x^2/2 tabulated on [-30, 30]: the pdf underflows to 0 in both tails
        x = np.linspace(-30.0, 30.0, 200)
        mu = tv.build_measure(tv.PotentialSpec.tabulated(x, 0.5 * x**2), 4001)
        assert np.any(mu.quadrature == 0)
        sg = spectral_gap(mu)
        assert np.all(np.isfinite(sg.f))
        assert sg.C_P == pytest.approx(0.5, rel=2e-3)
        assert sg.rayleigh == pytest.approx(sg.C_P, rel=1e-3)

    def test_deterministic(self, exponential_measure):
        a, b = spectral_gap(exponential_measure), spectral_gap(exponential_measure)
        assert (a.gap, a.C_P, a.rayleigh) == (b.gap, b.C_P, b.rayleigh)
        assert np.array_equal(a.f, b.f)


class TestBakryEmery:
    def test_gaussian(self, gaussian_measure):
        be = bakry_emery(gaussian_measure)
        assert be.rho == pytest.approx(1.0, abs=1e-12)
        assert be.C_LS == pytest.approx(1.0, abs=1e-12)

    def test_oscillation_factor(self, gaussian_measure):
        be = bakry_emery(gaussian_measure, w_osc=math.log(2.0))
        assert be.C_LS == pytest.approx(2.0, abs=1e-12)

    def test_quartic_has_no_constant(self):
        mu = tv.build_measure(tv.PotentialSpec.power(4.0), 2001)
        be = bakry_emery(mu)
        assert be.rho == pytest.approx(0.0, abs=1e-12)
        assert be.C_LS is None


class TestTailCriterion:
    def test_power_tails_accepted(self):
        # nu([x,inf)) ~ x^{-p} pairs with beta(s) = s^{-2/p}
        mu = tv.build_measure(tv.PotentialSpec.power(1.0), 4001, tail_tol=1e-24)
        p = 1.0
        g = _normalized(mu, (1.0 + mu.grid ** 2) ** (-(1.0 + p) / 2.0))
        res = weak_poincare_beta_from_tails(mu, g, BetaFunction.power(1.0, 2.0 / p))
        assert res.accepted
        assert res.C_range[0] <= res.C_range[1]
        assert res.beta_wp is not None

    def test_log_tails_accepted(self, gaussian_measure):
        mu = gaussian_measure
        g = _normalized(mu, 1.0 / ((np.e + np.abs(mu.grid))
                                   * np.log(np.e + np.abs(mu.grid)) ** 2))
        s = np.geomspace(1e-4, 1.0, 2000)
        beta = BetaFunction.tabulated(s, np.exp(2.0 / np.sqrt(s)))
        res = weak_poincare_beta_from_tails(mu, g, beta)
        assert res.accepted

    def test_mismatched_exponent_divergent(self):
        # beta as if the tail exponent were p = 1.5 while g has p = 1
        mu = tv.build_measure(tv.PotentialSpec.power(1.0), 4001, tail_tol=1e-24)
        g = _normalized(mu, (1.0 + mu.grid ** 2) ** -1.0)
        with pytest.raises(DivergentSup):
            weak_poincare_beta_from_tails(mu, g, BetaFunction.power(1.0, 2.0 / 1.5))

    def test_asymmetric_rejected(self, gaussian_measure):
        mu = gaussian_measure
        g = _normalized(mu, (1.0 + mu.grid ** 2) ** -1.0
                        * (1.0 + 0.2 * np.tanh(mu.grid)))
        with pytest.raises(AsymmetricInput):
            weak_poincare_beta_from_tails(mu, g, BetaFunction.power(1.0, 2.0))


class TestDriftTailBeta:
    def test_exponent(self):
        assert drift_tail_beta(1.0 / 3.0, 1.0).params["r"] == pytest.approx(0.5)

    def test_small_p_limit(self):
        assert drift_tail_beta(1e-6, 1.0).params["r"] == pytest.approx(0.0, abs=1e-5)

    def test_value(self):
        beta = drift_tail_beta(0.5, 1.0)
        assert float(beta(0.02)) == pytest.approx(math.log(100.0) ** (2.0 / 3.0),
                                                  rel=1e-12)

    def test_bad_exponent(self):
        with pytest.raises(BadExponent):
            drift_tail_beta(1.5, 1.0)
        with pytest.raises(BadExponent):
            drift_tail_beta(0.5, -1.0)


def _eta_ulog_beta(b):
    def e(u):
        u = np.asarray(u, float)
        return u * np.log(np.maximum(u, 1.0)) ** b

    def e1(u):
        u = np.asarray(u, float)
        L = np.log(np.maximum(u, 1.0))
        return L ** b + b * L ** (b - 1.0)

    def e2(u):
        u = np.asarray(u, float)
        L = np.log(np.maximum(u, 1.0))
        return (b * L ** (b - 1.0) + b * (b - 1.0) * L ** (b - 2.0)) / u

    return EtaProfile(eta=e, eta_prime=e1, eta_second=e2, b=math.e ** 2,
                      name=f"ulog{b:g}")


class TestCapacityCondition:
    def test_power_eta_constant_F(self, gaussian_measure):
        # eta = u^p with constant F: C_cap = rho^p/(p(p-1) F), exactly
        p, rho, a = 1.5, 2.0, 2.1
        f_val = 1.0 / (3.0 * 0.5)
        chk = capacity_condition_check(
            gaussian_measure,
            lambda u: np.full_like(np.asarray(u, float), f_val),
            eta_power(p), a, rho)
        assert chk.C_cap == pytest.approx(rho ** p / (p * (p - 1.0) * f_val),
                                          rel=1e-9)
        assert chk.C_eta_bound > 0 and np.isfinite(chk.C_eta_bound)
        assert np.isfinite(chk.HprimeF_sup_right)
        assert np.isfinite(chk.HprimeF_sup_left)

    def test_quadratic_eta_constant_F(self, gaussian_measure):
        chk = capacity_condition_check(
            gaussian_measure, lambda u: np.full_like(np.asarray(u, float), 1.0),
            tv.eta_quadratic(), 2.1, 2.0)
        assert np.isfinite(chk.C_cap) and chk.C_cap > 0

    def test_entropy_eta_log_F_beta_trend(self, gaussian_measure):
        # eta = u log^b u with F = log: C_cap ~ (1 ^ 2^{b-1})/b up to constants
        normalized = {}
        for b in (0.5, 1.0, 2.0):
            chk = capacity_condition_check(
                gaussian_measure,
                lambda u: np.log(np.maximum(np.asarray(u, float), 1.001)),
                _eta_ulog_beta(b), math.e ** 2 + 0.1, 2.0)
            normalized[b] = chk.C_cap * b / min(1.0, 2.0 ** (b - 1.0))
        vals = list(normalized.values())
        assert max(vals) / min(vals) < 4.0, normalized

    def test_fsobolev_worked_example(self):
        # the oscillating potential |x|^alpha + log(1 + |x| sin^2 x) with the
        # matched profile eta = u log^{2(1-1/alpha)}(u) e^{log^{2/alpha - 1} u}
        # and F = log^{2(1-1/alpha)}(1+u) - log^{2(1-1/alpha)}(2): the full
        # criterion pipeline yields finite constants
        from tvdecay.psi import eta_fsobolev
        alpha = 1.5
        eta = eta_fsobolev(alpha)
        assert all(eta.admissibility_flags().values())
        mu = tv.build_measure(tv.PotentialSpec.power_log(alpha), 4001)
        m = 2.0 * (1.0 - 1.0 / alpha)
        F = lambda u: np.log1p(np.asarray(u, float)) ** m - math.log(2.0) ** m
        chk = capacity_condition_check(mu, F, eta, max(2.1, eta.b + 0.1), 2.0)
        assert np.isfinite(chk.C_cap) and chk.C_cap > 0
        assert np.isfinite(chk.C_eta_bound) and chk.C_eta_bound > 0
        assert np.isfinite(chk.HprimeF_sup_right)
        assert np.isfinite(chk.HprimeF_sup_left)

    def test_alt_remark_flagged(self, gaussian_measure):
        chk = capacity_condition_check(
            gaussian_measure, lambda u: np.full_like(np.asarray(u, float), 1.0),
            eta_power(1.5), 2.1, 2.0)
        assert "ambiguous" in chk.alt_remark_flag
        assert np.isfinite(chk.alt_remark_ratio_sup)


class TestBetaTransforms:
    def test_orlicz_power_law(self):
        # phi = u^{p-1}, p = 4: zeta-bar ~ u^{p/(p-2)} = u^2, so the
        # transformed beta scales like s^{-q p/(p-2)}
        base = tv.BetaFunction.power(1.0, 1.0)
        bz = beta_orlicz(base, phi=lambda u: np.asarray(u, float) ** 3.0)
        s = np.geomspace(1e-8, 1e-2, 40)
        slope = fit_loglog_slope(s, bz(s))
        assert slope == pytest.approx(-2.0, abs=0.02)

    def test_legendre_conjugate_matches_row_by_row(self):
        # the blocked sup is over the same elementwise values as one row at a
        # time, so the conjugate is bit-identical
        u = np.geomspace(1e-8, 1e8, 2000)
        for phi in (lambda v: v ** 2.0, lambda v: np.log1p(v), lambda v: v):
            gamma_vals = np.sqrt(u) * phi(np.sqrt(u))
            y = 1.0 / np.geomspace(1e-12, 1.0, 2000)[::-1]
            want = np.array([np.max(u * yi - gamma_vals) for yi in y])
            assert np.array_equal(legendre_conjugate_brute(gamma_vals, u, y), want)
            assert np.array_equal(_legendre_conjugate(gamma_vals, u, y), want)

    GAMMAS = {
        "convex": lambda v: v ** 3.0,
        "linear": lambda v: v,
        "log1p": np.log1p,
        "non-convex": lambda v: v * (1.5 + np.sin(np.log(v))),
        "concave": lambda v: v ** -0.8,
        "constant": lambda v: np.full_like(v, 2.0),
    }

    @pytest.mark.parametrize("hole", [None, "nan", "inf", "-inf", "inf-tile"])
    @pytest.mark.parametrize("phi", sorted(GAMMAS))
    def test_pruned_legendre_conjugate_is_the_brute_force(self, phi, hole):
        # the pruned conjugate skips only tiles that cannot hold a row's
        # maximum: the same bytes as the sup over every u, and a nan or inf
        # gamma spreads as it does there
        u = np.geomspace(1e-8, 1e8, 2000)
        gamma_vals = np.sqrt(u) * self.GAMMAS[phi](np.sqrt(u))
        if hole == "inf-tile":
            gamma_vals[128:192] = np.inf
        elif hole is not None:
            gamma_vals[[5, 1000, 1999]] = float(hole)
        for y in (1.0 / np.geomspace(1e-12, 1.0, 2000)[::-1],
                  np.geomspace(1e-3, 1e3, 777),
                  np.random.default_rng(3).uniform(0.5, 2e4, 300)):
            want = legendre_conjugate_brute(gamma_vals, u, y)
            got = _legendre_conjugate(gamma_vals, u, y)
            assert got.tobytes() == want.tobytes()
            if hole == "nan":
                assert np.isnan(got).all()

    def test_orlicz_peak_memory(self):
        # the Legendre conjugate takes blocks of y-rows of about 1 MB: no
        # 2000 x 2000 (32 MB) temporary
        base = tv.BetaFunction.power(1.0, 1.0)
        phi = lambda u: np.asarray(u, float) ** 3.0
        beta_orlicz(base, phi)
        tracemalloc.start()
        try:
            beta_orlicz(base, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_orlicz_non_young_warning(self):
        # concave phi makes gamma(u) = zeta(sqrt u) non-convex
        base = tv.BetaFunction.power(1.0, 1.0)
        with pytest.warns(NonYoungWarning):
            beta_orlicz(base, phi=lambda u: np.asarray(u, float) ** -0.8)
