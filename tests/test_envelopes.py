import math

import numpy as np
import pytest
from scipy.integrate import quad

import tvdecay as tv
from tvdecay.envelopes import (
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
    gamma_inverse,
    hellinger_eval,
    r_curve,
    theta_inverse_rate,
    truncation_logsob_k_optimized,
    truncation_poincare_k_optimized,
    xi,
)
from tvdecay.errors import MomentMissing
from tvdecay.inequalities import beta_orlicz
from tvdecay._numerics import fit_log_slope, fit_loglog_slope


def _phi_power(q):
    return lambda u: np.asarray(u, float) ** (q - 1.0)


def _phi_logbeta(b):
    return lambda u: np.maximum(np.log(np.maximum(np.asarray(u, float), 1e-300)),
                                0.0) ** b


def _assert_monotone(env, t_lo=1e-3, t_hi=50.0, n=200):
    ts = np.geomspace(max(t_lo, env.valid_from + 1e-9), t_hi, n)
    vals = np.array([env.eval(t) for t in ts])
    assert np.all(np.diff(vals) <= 1e-12 + 1e-9 * vals[:-1]), env.name


class TestXi:
    def test_constant_beta_exact_exponential(self):
        spec = XiSpec(beta=tv.BetaFunction.constant(1.0))
        for t in np.linspace(0.1, 20.0, 40):
            assert abs(xi(spec, t) - math.exp(-t)) < 1e-10

    def test_inverse_beta_at_e(self):
        spec = XiSpec(beta=tv.BetaFunction.power(1.0, 1.0))
        assert xi(spec, math.e) == pytest.approx(1.0 / math.e, rel=1e-9)

    def test_residual_for_power_beta(self):
        for q in (0.5, 1.0, 2.0):
            beta = tv.BetaFunction.power(1.0, q)
            spec = XiSpec(beta=beta)
            for t in np.geomspace(0.5, 200.0, 20):
                s = xi(spec, t)
                resid = float(beta(np.asarray(s))) * math.log(1.0 / s) - t
                assert abs(resid) <= 1e-8 * max(1.0, t)

    def test_monotone_and_vanishing(self):
        spec = XiSpec(beta=tv.BetaFunction.power(1.0, 1.0))
        ts = np.geomspace(0.1, 1e6, 50)
        vals = [xi(spec, t) for t in ts]
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-4  # xi ~ log(t)/t for beta = 1/s

    def test_unreached_flag(self):
        # at tiny t even the top of the bracket fails: domain max + flag
        spec = XiSpec(beta=tv.BetaFunction.power(1.0, 2.0))
        val, unreached = xi(spec, 1e-12, return_flag=True)
        assert unreached and val == pytest.approx(1.0, abs=1e-6)

    def test_clock_scaling(self):
        base = XiSpec(beta=tv.BetaFunction.constant(1.0), t_scale=1.0)
        fast = XiSpec(beta=tv.BetaFunction.constant(1.0), t_scale=4.0)
        assert xi(fast, 1.0) == pytest.approx(xi(base, 4.0), rel=1e-9)


class TestPoincareL2:
    def test_t_zero(self):
        env = envelope_poincare_l2(0.5, 1.3)
        assert env.eval(0.0) == pytest.approx(1.3)

    def test_inversion(self):
        env = envelope_poincare_l2(0.5, 1.0)
        t01 = 2 * 0.5 * math.log(1.0 / 0.01)
        assert env.eval(t01) == pytest.approx(0.01, rel=1e-12)

    def test_gaussian_rate(self):
        env = envelope_poincare_l2(0.5, 1.0)
        ts = np.linspace(1.0, 5.0, 10)
        assert fit_log_slope(ts, [env.eval(t) for t in ts]) == pytest.approx(-1.0)

    def test_monotone(self):
        _assert_monotone(envelope_poincare_l2(0.5, 1.7))


class TestTruncationPoincare:
    @pytest.mark.parametrize("q", [1.25, 1.5, 1.75])
    def test_closed_form_rate(self, q):
        env = envelope_truncation_poincare(0.5, _phi_power(q), 2.0 ** (q - 1.0))
        ts = np.linspace(2.0, 12.0, 20)
        slope = fit_log_slope(ts, [env.raw_eval(t) for t in ts])
        assert slope == pytest.approx(-(q - 1.0) / ((2 * q - 1.0) * 0.5), rel=1e-4)

    def test_q2_gives_third_rate(self):
        # the truncation route yields e^{-t/3C_P}, not e^{-t/2C_P}
        env = envelope_truncation_poincare(0.5, _phi_power(2.0), 2.0)
        ts = np.linspace(2.0, 12.0, 20)
        slope = fit_log_slope(ts, [env.raw_eval(t) for t in ts])
        assert slope == pytest.approx(-1.0 / (3.0 * 0.5), rel=1e-4)

    @pytest.mark.parametrize("q", [1.25, 1.5, 1.75])
    def test_k_optimization_bracket(self, q):
        env = envelope_truncation_poincare(0.5, _phi_power(q), 2.0 ** (q - 1.0))
        for t in np.linspace(1.0, 12.0, 20):
            closed = env.raw_eval(t)
            numeric = truncation_poincare_k_optimized(0.5, _phi_power(q),
                                                      2.0 ** (q - 1.0), t)
            assert 0.5 * closed - 1e-12 <= numeric <= 1.05 * closed

    def test_moment_missing(self):
        with pytest.raises(MomentMissing):
            envelope_truncation_poincare(0.5, _phi_power(1.5), float("nan"))

    def test_monotone(self):
        _assert_monotone(envelope_truncation_poincare(0.5, _phi_power(1.5), 1.4))


class TestWeakPoincare:
    def test_drift_tail_stretched_exponential(self):
        # beta = d log^{2p/(1+p)}(2/s) gives log(1/xi) ~ t^{(1+p)/(1+3p)};
        # the drift example's printed target (1-p)/(1+p) is not what the
        # stated beta produces
        for p in (1.0 / 3.0, 0.5):
            beta = tv.drift_tail_beta(p, 1.0)
            spec = XiSpec(beta=beta)
            ts = np.geomspace(5.0, 200.0, 25)
            L = np.array([-math.log(xi(spec, t)) for t in ts])
            slope = fit_loglog_slope(ts, L)
            assert slope == pytest.approx((1 + p) / (1 + 3 * p), abs=0.05)

    def test_constant_beta_reduces_to_exponential(self):
        # beta == C_P: envelope rate (q-1)/(2q C_P); the truncation route
        # gives the faster (q-1)/((2q-1) C_P), so they agree only on an
        # early window (the Osc^2 <= K^2 step costs a factor in the rate)
        q, C_P = 1.5, 0.5
        m = 2.0 ** (q - 1.0)
        env_wp = envelope_weak_poincare(tv.BetaFunction.constant(C_P),
                                        _phi_power(q), m)
        env_tp = envelope_truncation_poincare(C_P, _phi_power(q), m)
        ts = np.linspace(2.0, 10.0, 16)
        slope_wp = fit_log_slope(ts, [env_wp.raw_eval(t) for t in ts])
        slope_tp = fit_log_slope(ts, [env_tp.raw_eval(t) for t in ts])
        assert slope_wp == pytest.approx(-(q - 1.0) / (2 * q * C_P), rel=1e-3)
        assert slope_tp == pytest.approx(-(q - 1.0) / ((2 * q - 1.0) * C_P), rel=1e-3)
        early = np.linspace(0.5, 2.0, 6)
        for t in early:
            ratio = env_tp.raw_eval(t) / env_wp.raw_eval(t)
            assert 0.5 <= ratio <= 2.0

    def test_small_t_clipped(self):
        env = envelope_weak_poincare(tv.BetaFunction.constant(0.5),
                                     _phi_power(1.5), 1.4)
        assert env.eval(1e-6) <= 2.0

    def test_monotone(self):
        _assert_monotone(envelope_weak_poincare(
            tv.drift_tail_beta(0.5, 1.0), _phi_power(1.5), 1.4), t_hi=30.0)


class TestOrlicz:
    def test_xi_zeta_relation_up_to_constants(self):
        # xi_zeta(t) = (xi_WP(p t/(p-2)))^{(p-2)/p} up to constants
        p = 4.0
        bwp = tv.BetaFunction.power(1.0, 1.0)
        bz = beta_orlicz(bwp, _phi_power(p))
        ts = np.geomspace(1e2, 1e7, 25)
        xz = np.array([xi(XiSpec(beta=bz), t) for t in ts])
        xw = np.array([xi(XiSpec(beta=bwp), p * t / (p - 2.0)) for t in ts])
        ratio = xz / xw ** ((p - 2.0) / p)
        assert ratio.max() / ratio.min() < 2.0
        assert abs(fit_loglog_slope(ts, ratio)) < 0.05

    def test_worse_rate_than_weak_poincare(self):
        p = 4.0
        bwp = tv.BetaFunction.power(1.0, 1.0)
        env_o = envelope_orlicz(bwp, _phi_power(p), 1.0)
        env_w = envelope_weak_poincare(bwp, _phi_power(p), 1.0)
        ts = np.geomspace(50.0, 5000.0, 20)
        so = fit_loglog_slope(ts, [env_o.raw_eval(t) for t in ts])
        sw = fit_loglog_slope(ts, [env_w.raw_eval(t) for t in ts])
        assert so > sw  # less negative: slower decay

    def test_constant_beta_same_rate(self):
        # for constant beta the transform degenerates to another constant
        bwp = tv.BetaFunction.constant(0.5)
        bz = beta_orlicz(bwp, _phi_power(3.0))
        s = np.geomspace(1e-8, 0.5, 20)
        vals = bz(s)
        assert vals.max() / vals.min() < 1.0 + 1e-9


class TestLogSobolev:
    def test_t_zero(self):
        env = envelope_logsob(1.0, 0.7)
        assert env.eval(0.0) == pytest.approx(math.sqrt(1.4))

    def test_zero_entropy(self):
        assert envelope_logsob(1.0, 0.0).eval(5.0) == 0.0

    def test_gaussian_rate(self):
        env = envelope_logsob(1.0, 0.7)
        ts = np.linspace(1.0, 6.0, 10)
        assert fit_log_slope(ts, [env.eval(t) for t in ts]) == pytest.approx(-1.0)

    @pytest.mark.parametrize("b,t_window", [(0.5, (1.0, 5.0)), (1.0, (1.0, 8.0))])
    def test_truncation_rate(self, b, t_window):
        env = envelope_truncation_logsob(1.0, _phi_logbeta(b), 1.0)
        ts = np.linspace(*t_window, 20)
        slope = fit_log_slope(ts, [env.raw_eval(t) for t in ts])
        assert slope == pytest.approx(-2.0 * b / (2.0 * b + 1.0), rel=1e-4)

    @pytest.mark.parametrize("b,t_window", [(0.5, (1.0, 5.0)), (1.0, (1.0, 8.0))])
    def test_truncation_k_optimization(self, b, t_window):
        # K-optimization with Ent(h ^ K) <= log K + 1/e stays below the
        # closed form (within the 1.05 slack)
        env = envelope_truncation_logsob(1.0, _phi_logbeta(b), 1.0)
        for t in np.linspace(*t_window, 12):
            assert (truncation_logsob_k_optimized(1.0, _phi_logbeta(b), 1.0, t)
                    <= 1.05 * env.raw_eval(t))

    def test_power_phi_comparison_emitted(self):
        # pure evaluation: both envelopes exist for phi = u^{q-1}; no
        # ordering is asserted, only that both produce valid bounds
        env_p = envelope_truncation_poincare(0.5, _phi_power(1.5), 1.4)
        env_l = envelope_truncation_logsob(1.0, _phi_power(1.5), 1.4)
        for t in (1.0, 3.0, 6.0):
            assert env_p.eval(t) >= 0 and env_l.eval(t) >= 0


class TestWeakLogSobolev:
    def test_constant_beta_exact_xi(self):
        # the weak log-Sobolev clock: numerator eps, time scale 2
        b0, eps = 3.0, 1.0 / math.e
        spec = XiSpec(beta=tv.BetaFunction.constant(b0), log_numerator=eps,
                      t_scale=2.0)
        for t in (1.0, 2.0, 4.0):
            assert xi(spec, t) == pytest.approx(
                eps * math.exp(-2.0 * t / b0), rel=1e-9)

    def test_default_epsilon(self):
        env = envelope_weak_logsob(tv.BetaFunction.constant(1.0),
                                   _phi_power(2.0), 1.0)
        assert env.params["eps"] == pytest.approx(1.0 / math.e)

    def test_t_zero_clipped(self):
        env = envelope_weak_logsob(tv.BetaFunction.constant(1.0),
                                   _phi_power(2.0), 1.0)
        assert env.eval(1e-9) <= 2.0

    def test_valid_from_flags_large_small_t_bound(self):
        # a large moment pushes the small-t bound above the maximal TV;
        # valid_from records where it crosses back below 2
        env = envelope_weak_logsob(tv.BetaFunction.constant(1.0),
                                   _phi_power(2.0), 5.0)
        assert env.raw_eval(1e-8) > 2.0
        assert env.valid_from > 0.0
        assert env.raw_eval(env.valid_from * 1.01) <= 2.0 + 1e-5


class TestRestrictedLogSobolev:
    def test_gamma_round_trip(self):
        # beta = c/s: gamma(u) = c/u^2, gamma^{-1}(v) = sqrt(c/v)
        c = 2.0
        gamma_inv = gamma_inverse(tv.BetaFunction.power(c, 1.0))
        for v in (10.0, 100.0, 1e4):
            u = gamma_inv(v)
            assert c / u ** 2 == pytest.approx(v, rel=1e-10)

    def test_branch_selection_power(self):
        env = envelope_restricted_logsob(0.5, tv.BetaFunction.power(1.0, 1.0),
                                         _phi_power(1.5), 1.0)
        assert env.params["branch"] == 1

    def test_branch_selection_loglog(self):
        phi = lambda u: np.log1p(np.maximum(
            np.log(np.maximum(np.asarray(u, float), 1.0)), 0.0))
        env = envelope_restricted_logsob(0.5, tv.BetaFunction.power(1.0, 1.0),
                                         phi, 1.0)
        assert env.params["branch"] == 2

    def test_monotone_with_flat_continuation(self):
        beta = tv.BetaFunction.from_callable(
            lambda s: np.asarray(s, float) * np.exp(1.0 / np.asarray(s, float)),
            5e-2, 0.99)
        env = envelope_restricted_logsob(0.5, beta, _phi_power(1.5), 1.0)
        vals = [env.eval(t) for t in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert np.all(np.diff(vals) <= 1e-12)
        assert env.params["zeta_saturated_at"] > 0


class TestIpsi:
    def test_t_zero(self):
        env = envelope_ipsi(2.0, 1.0, 0.3)
        assert env.raw_eval(0.0) == pytest.approx(1.3)

    def test_rate_trend_near_p_one(self, gaussian_measure):
        # eta = u^p: the I_psi rate 1/(4 C_eta) scales like (p-1) near p = 1
        from tvdecay.inequalities import capacity_condition_check
        from tvdecay.psi import eta_power
        rho = 2.0
        rates = {}
        for p in (1.1, 1.2):
            chk = capacity_condition_check(
                gaussian_measure,
                lambda u: np.full_like(np.asarray(u, float), 1.0 / 1.5),
                eta_power(p), 2.1, rho)
            rates[p] = 1.0 / (4.0 * chk.C_eta_bound)
        ratio = rates[1.2] / rates[1.1]
        linear = 0.2 / 0.1
        assert abs(ratio / (linear * rho ** -0.1) - 1.0) < 0.2

    def test_pipeline_c_eta_finite(self, gaussian_measure):
        from tvdecay.inequalities import capacity_condition_check
        from tvdecay.psi import eta_power
        chk = capacity_condition_check(
            gaussian_measure, lambda u: np.full_like(np.asarray(u, float), 2.0 / 3.0),
            eta_power(1.5), 2.1, 2.0)
        env = envelope_ipsi(chk.C_eta_bound, 1.0, 0.5)
        assert env.raw_eval(10.0) > 0 and np.isfinite(env.raw_eval(10.0))


class TestHellinger:
    def test_constant_beta_rate(self):
        # beta_H constant: xi_H = e^{-4t/beta}
        b0 = 2.0
        ts = np.linspace(2.0, 8.0, 12)
        hv = [hellinger_eval(tv.BetaFunction.constant(b0), 2.0, t) for t in ts]
        assert fit_log_slope(ts, hv) == pytest.approx(-4.0 / b0, rel=1e-6)

    def test_poincare_equivalent_polynomial_decay(self):
        # beta_H = c/s: TV form decays like t^{-2/5} (log-corrected)
        env = envelope_hellinger(tv.BetaFunction.power(1.0, 1.0),
                                 lambda u: np.asarray(u, float), 1.0, 2.0)
        ts = np.geomspace(1e4, 1e8, 20)
        slope = fit_loglog_slope(ts, [env.raw_eval(t) for t in ts])
        assert -0.42 <= slope <= -0.34

    def test_t_zero_clipped(self):
        env = envelope_hellinger(tv.BetaFunction.power(1.0, 1.0),
                                 lambda u: np.asarray(u, float), 1.0, 2.0)
        assert env.eval(0.0) <= 2.0


class TestCurvature:
    def test_t_zero_bound_one(self):
        env = envelope_curvature(1.0, tv.BetaFunction.power(1.0, 1.0))
        assert env.raw_eval(0.0) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_power_beta_rate(self, q):
        env = envelope_curvature(1.0, tv.BetaFunction.power(1.0, q))
        ts = np.linspace(5.0, 20.0, 16)
        slope = fit_log_slope(ts, [env.eval(t) for t in ts])
        assert slope == pytest.approx(-1.0 / (2.0 * (1.0 + q)), rel=0.05)

    def test_polynomial_tail_rate(self):
        # q = 2/p: rate rho p/(2(p+2))
        p = 2.0
        rho = 1.0
        env = envelope_curvature(rho, tv.BetaFunction.power(1.0, 2.0 / p))
        ts = np.linspace(5.0, 20.0, 16)
        slope = fit_log_slope(ts, [env.eval(t) for t in ts])
        assert slope == pytest.approx(-rho * p / (2.0 * (p + 2.0)), rel=0.05)

    def test_theta_closed_form(self):
        # beta = c s^{-q}: theta(u) = (c rho/4u)^{1/(1+q)}
        c, q, rho = 1.0, 2.0, 1.0
        beta = tv.BetaFunction.power(c, q)
        for u in (10.0, 1e3, 1e6):
            th = theta_inverse_rate(beta, rho, u)
            resid = float(beta(np.asarray(th))) / th - 4.0 * u / rho
            assert abs(resid) <= 1e-8 * (4.0 * u / rho)
            assert th == pytest.approx((c * rho / (4.0 * u)) ** (1.0 / (1.0 + q)),
                                       rel=1e-6)

    def test_r_curve_identity(self):
        # r(0, s) = 0 and the closed log form equals the direct quadrature
        rho = 1.3
        beta = tv.BetaFunction.power(0.7, 1.5)
        rng = np.random.default_rng(41)
        for _ in range(20):
            t = rng.uniform(0.1, 5.0)
            s = rng.uniform(1e-4, 0.4)
            assert r_curve(rho, beta, 0.0, s) == 0.0
            b = float(beta(np.asarray(s)))
            direct, _ = quad(
                lambda u: 1.0 / ((1.0 - math.exp(-rho * u)) / rho
                                 + math.exp(-rho * u) * b), 0.0, t,
                epsabs=1e-13, epsrel=1e-13)
            assert abs(r_curve(rho, beta, t, s) - direct) < 1e-10

    def test_rho_zero_limit(self):
        env = envelope_curvature(0.0, tv.BetaFunction.constant(1.0))
        assert env.params["rho_zero_limit"] is True
        assert r_curve(0.0, tv.BetaFunction.constant(2.0), 4.0, 0.1) == (
            pytest.approx(math.log1p(2.0)))

    def test_monotone(self):
        _assert_monotone(envelope_curvature(1.0, tv.BetaFunction.power(1.0, 1.0)))


class TestClosedFormAgreement:
    def test_truncation_poincare_prefactor(self):
        # generic bisection envelope vs the analytic closed form
        # 4^{q/(2q-1)} m^{1/(2q-1)} e^{-(q-1)t/((2q-1)C_P)}: same slope
        # (asserted to 1%) and prefactor within the paper's x4 slack
        C_P = 0.5
        for q in (1.25, 1.5, 1.75):
            m = 2.0 ** (q - 1.0)
            env = envelope_truncation_poincare(0.5, _phi_power(q), m)
            for t in (2.0, 5.0, 9.0):
                closed = (4.0 ** (q / (2 * q - 1.0)) * m ** (1.0 / (2 * q - 1.0))
                          * math.exp(-(q - 1.0) * t / ((2 * q - 1.0) * C_P)))
                ratio = env.raw_eval(t) / closed
                assert 0.25 <= ratio <= 4.0, (q, t, ratio)

    def test_truncation_logsob_prefactor(self):
        # eq4 closed form m^{1/(2b+1)} e^{-2bt/((2b+1)C_LS)}
        C_LS = 1.0
        for b in (0.5, 1.0):
            env = envelope_truncation_logsob(C_LS, _phi_logbeta(b), 1.0)
            for t in (2.0, 4.0):
                closed = math.exp(-2.0 * b * t / ((2.0 * b + 1.0) * C_LS))
                ratio = env.raw_eval(t) / closed
                assert 0.25 <= ratio <= 4.0, (b, t, ratio)


class TestXiSpecValidation:
    def test_product_non_increasing_on_samples(self):
        # beta non-increasing makes s -> beta(s) log(c/s) non-increasing on
        # (0, c); every BetaFunction form satisfies this by construction
        betas = [tv.BetaFunction.power(1.0, 0.7),
                 tv.BetaFunction.logpower(2.0, 1.2),
                 tv.BetaFunction.constant(0.4),
                 tv.BetaFunction.from_callable(
                     lambda s: np.exp(1.0 / np.sqrt(s)), 1e-4, 1.0)]
        for beta in betas:
            for c in (1.0, 0.5):
                spec = XiSpec(beta=beta, log_numerator=c)
                s = np.geomspace(1e-9, c * 0.999, 300)
                prod = beta(s) * np.log(c / s)
                assert np.all(np.diff(prod) <= 1e-9 * np.abs(prod[:-1]) + 1e-300)
                assert spec.log_numerator == c


class TestCalibration:
    def test_calibrate_pins_value_at_zero(self):
        env = envelope_poincare_l2(0.5, 5.0).calibrate(0.8)
        assert env.eval(0.0) == pytest.approx(0.8, rel=1e-12)
        assert env.params["calibrated_to"] == pytest.approx(0.8)

    def test_calibrate_clips_at_two(self):
        env = envelope_poincare_l2(0.5, 5.0).calibrate(3.5)
        assert env.eval(0.0) == pytest.approx(2.0)

    def test_all_envelopes_clipped_at_two(self):
        envs = [
            envelope_poincare_l2(0.5, 100.0),
            envelope_truncation_poincare(0.5, _phi_power(1.5), 50.0),
            envelope_logsob(1.0, 400.0),
            envelope_curvature(1.0, tv.BetaFunction.power(1.0, 1.0)),
        ]
        for env in envs:
            assert env.eval(1e-6) <= 2.0
            assert env.eval(env.valid_from + 1e-6) <= 2.0


class TestInverseResiduals:
    def test_randomized_forward_residuals(self):
        # 1000 randomized inversions across the map families, relative
        # forward residual <= 1e-8
        from tvdecay._numerics import invert_increasing
        rng = np.random.default_rng(53)
        count = 0
        while count < 1000:
            kind = count % 4
            if kind == 0:
                q = rng.uniform(1.1, 3.0)
                fn = lambda u: math.sqrt(u) * u ** (q - 1.0)
            elif kind == 1:
                q = rng.uniform(1.1, 3.0)
                fn = lambda u: u * u ** (q - 1.0)
            elif kind == 2:
                b = rng.uniform(0.3, 1.5)
                fn = lambda u: (u ** b) * math.log(1.0 + u)
            else:
                fn = lambda u: u ** 0.25 * (1.0 + u)
            y = math.exp(rng.uniform(math.log(1e-3), math.log(1e6)))
            u = invert_increasing(fn, y, 1e-6, 1e6)
            assert abs(fn(u) - y) <= 1e-8 * max(y, 1.0)
            count += 1

    def test_xi_residuals_randomized(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            q = rng.uniform(0.2, 2.5)
            c = math.exp(rng.uniform(-1.0, 1.0))
            beta = tv.BetaFunction.power(c, q)
            spec = XiSpec(beta=beta)
            t = math.exp(rng.uniform(0.0, 4.0))
            s = xi(spec, t)
            resid = float(beta(np.asarray(s))) * math.log(1.0 / s) - t
            assert abs(resid) <= 1e-8 * max(1.0, t)
