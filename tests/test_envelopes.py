import math

import numpy as np
import pytest

import tvdecay as tv
from tvdecay import envelopes
from tvdecay.envelopes import (
    _exp,
    _valid_from,
    TV_MAX,
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
    truncation_logsob_k_optimized,
    verdict,
    xi,
)
from tvdecay.errors import BadExponent, MomentMissing
from tvdecay.measures import step_density
from tvdecay.inequalities import beta_orlicz
from tvdecay.psi import build_psi_from_eta, eta_power, pinsker_constant
from tvdecay._numerics import (fit_log_slope, fit_loglog_slope, golden_min_log,
                               invert_increasing, scan_min_log)
from conftest import truncation_poincare_k_optimized


def _phi_power(q):
    return lambda u: np.asarray(u, float) ** (q - 1.0)


def _phi_logbeta(b):
    return lambda u: np.maximum(np.log(np.maximum(np.asarray(u, float), 1e-300)),
                                0.0) ** b


def _assert_monotone(env, t_lo=1e-3, t_hi=50.0, n=200):
    ts = np.geomspace(max(t_lo, _valid_from(env) + 1e-9), t_hi, n)
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

    @pytest.mark.parametrize("C, c, k", [(1.0, 1.0, 1.0), (3.0, 1.0 / math.e, 2.0),
                                         (0.25, 1.0, 4.0)])
    def test_constant_beta_log_xi_to_700(self, C, c, k):
        # beta = C: log xi = log c - k t / C, to the 1e-12 residual of v = k t / C,
        # far past e^{-36.8} = 1e-16
        v = np.geomspace(1e-2, 700.0, 400)
        s = xi(XiSpec(beta=tv.BetaFunction.constant(C), log_numerator=c, t_scale=k),
               v * C / k)
        assert np.all(np.abs(np.log(s) - (math.log(c) - v)) <= 1e-12 * v)

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
        vf = _valid_from(env)
        assert vf > 0.0
        assert env.raw_eval(vf * 1.01) <= 2.0 + 1e-5

    def test_calibration_leaves_valid_from_unchanged(self):
        env = envelope_weak_logsob(tv.BetaFunction.constant(1.0),
                                   _phi_power(2.0), 5.0)
        calibrated = env.calibrate(0.5)
        assert calibrated.scale != env.scale
        # calibration rescales eval but not the raw bound valid_from is taken of
        assert _valid_from(calibrated) == _valid_from(env) > 0.0


@pytest.mark.parametrize("build, message", [
    (lambda: envelope_poincare_l2(0.0, 1.0), "C_P must be positive"),
    (lambda: envelope_logsob(None, 0.5), "C_LS must be positive"),
    (lambda: envelope_logsob(-1.0, 0.5), "C_LS must be positive"),
    (lambda: envelope_ipsi(0.0, 1.0, 0.5), "C_eta must be positive"),
    (lambda: envelope_curvature(-0.1, tv.BetaFunction.constant(1.0)),
     "rho must be non-negative"),
], ids=["poincare_l2-C_P-zero", "logsob-C_LS-None", "logsob-C_LS-negative",
        "ipsi-C_eta-zero", "curvature-rho-negative"])
def test_a_constant_out_of_range_raises(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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

    def test_zeta_table_strictly_increases_through_a_dip(self, monkeypatch):
        # a planted zeta: a ramp to its peak with, on the way, a dip of 40 ulp
        # below its running max and then a rise to 20 ulp below it, both within
        # 1e-15 of that max.  np.interp must still get a strictly increasing xp.
        ug = np.geomspace(3.0, 1e6, 1200)
        zeta = np.linspace(0.01, 0.2, 1200)
        zeta[-100:] = zeta[-101]        # flat past the peak
        top = zeta[600]
        zeta[601], zeta[602] = top - 40 * np.spacing(top), top - 20 * np.spacing(top)
        two_log_phi = 2.0 * np.log(np.sqrt(ug))
        monkeypatch.setattr(envelopes, "gamma_inverse",
                            lambda beta: lambda v: zeta / two_log_phi)
        env = envelope_restricted_logsob(1.0 / 3.0, tv.BetaFunction.power(1.0, 1.0),
                                         _phi_power(1.5), 1.0)
        tables, interp = [], np.interp

        def spy(x, xp, fp, *args, **kwargs):
            tables.append(np.array(xp))
            return interp(x, xp, fp, *args, **kwargs)
        monkeypatch.setattr(np, "interp", spy)
        env.raw_eval(np.array([0.005, top, 0.1, 0.3]))
        [xp] = tables
        assert (np.diff(xp) > 0).all()
        assert np.sum(np.abs(xp - top) <= 1e-15) == 1
        assert env.params["zeta_saturated_at"] == pytest.approx(zeta[-101], rel=1e-15)

    def test_monotone_with_flat_continuation(self):
        s = np.geomspace(5e-2, 0.99, 2000)
        beta = tv.BetaFunction.tabulated(s, s * np.exp(1.0 / s))
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
                                 lambda u: np.asarray(u, float), 1.0)
        ts = np.geomspace(1e4, 1e8, 20)
        slope = fit_loglog_slope(ts, [env.raw_eval(t) for t in ts])
        assert -0.42 <= slope <= -0.34

    def test_t_zero_clipped(self):
        env = envelope_hellinger(tv.BetaFunction.power(1.0, 1.0),
                                 lambda u: np.asarray(u, float), 1.0)
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

    def test_rho_zero_limit(self):
        env = envelope_curvature(0.0, tv.BetaFunction.constant(1.0))
        assert env.params["rho_zero_limit"] is True
        # r(t, s) = log(1 + t/beta(s)); with beta = 2 the infimum over s of
        # e^{-r} + 4s sits at the scan's floor s = 1e-12
        env = envelope_curvature(0.0, tv.BetaFunction.constant(2.0))
        assert env.raw_eval(4.0) == pytest.approx(math.sqrt(math.exp(-math.log1p(2.0))),
                                                  rel=1e-9)

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
        s_tab = np.geomspace(1e-4, 1.0, 2000)
        betas = [tv.BetaFunction.power(1.0, 0.7),
                 tv.BetaFunction.logpower(2.0, 1.2),
                 tv.BetaFunction.constant(0.4),
                 tv.BetaFunction.tabulated(s_tab, np.exp(1.0 / np.sqrt(s_tab)))]
        for beta in betas:
            for c in (1.0, 0.5):
                spec = XiSpec(beta=beta, log_numerator=c)
                s = np.geomspace(1e-9, c * 0.999, 300)
                prod = beta(s) * np.log(c / s)
                assert np.all(np.diff(prod) <= 1e-9 * np.abs(prod[:-1]) + 1e-300)
                assert spec.log_numerator == c

    def test_probe_runs_forward_below_2e_10(self):
        # beta log(c/s) decreases on (0, c) for every c, however small
        spec = XiSpec(tv.BetaFunction.constant(1.0), 1e-11, 2.0)
        t = np.geomspace(1e-3, 1e3, 50)
        s = xi(spec, t)
        assert np.all(np.isfinite(s)) and np.all(np.diff(s) <= 0)

    @pytest.mark.parametrize("c", [1e-13, 1e-300])
    def test_empty_bracket_named(self, c):
        # xi's bracket top min(c, 1, s_max) - 1e-12 is not positive for these c
        with pytest.raises(BadExponent, match=f"c = {c:g}.*: min\\(c, 1, s_max\\) "
                                              "- 1e-12 must be positive$"):
            XiSpec(tv.BetaFunction.constant(1.0), c, 2.0)


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
            assert env.eval(_valid_from(env) + 1e-6) <= 2.0


class TestVerdict:
    @pytest.fixture(scope="class")
    def flow(self):
        mu = tv.build_measure(tv.PotentialSpec.gaussian(), 401)
        return tv.evolve(mu, step_density(mu), tv.SimConfig(dt=0.01, t_end=2.0))

    def test_domination_allows_1e_12_below_the_tv(self, flow):
        curves = {"half": 0.5 * flow.tv, "below": flow.tv - 2e-12,
                  "within": flow.tv - 5e-13}
        env = envelope_poincare_l2(0.5, 1.0)
        record = verdict(flow.times, flow.tv, curves, dict.fromkeys(curves, env))
        assert {name: rec["domination_fraction"] for name, rec in
                record["envelopes"].items()} == {"half": 0.0, "below": 0.0, "within": 1.0}

    def test_fields_of_the_record(self, flow):
        env = envelope_weak_logsob(tv.BetaFunction.constant(1.0), _phi_power(2.0),
                                   5.0).calibrate(0.5)
        record = verdict(flow.times, flow.tv, {"w": 0.5 * flow.tv}, {"w": env})
        half = flow.times >= 1.0
        slope = fit_log_slope(flow.times[half], flow.tv[half])
        assert record["tv_fitted_slope"] == slope
        assert record["envelopes"]["w"] == {
            "domination_fraction": 0.0, "fitted_slope": pytest.approx(slope, rel=1e-9),
            "valid_from": _valid_from(env), "calibration_scale": env.scale}

    @pytest.mark.parametrize("times", [[0.0, 1.0], [0.0, 0.3, 1.0], [0.0, 0.2, 0.4, 1.0]])
    def test_slopes_fit_at_least_the_last_two_saves(self, times):
        # one save at t >= t_end/2 is one equation in two unknowns, whose
        # minimum-norm answer log(y) t / (1 + t^2) is no slope: the fit takes
        # the last two saves, on which e^{-0.975 t} and the Poincare bound
        # e^{-t} have the log-slopes -0.975 and -1
        times = np.array(times)
        flow_tv = 0.5525 * np.exp(-0.975 * times)
        env = envelope_poincare_l2(0.5, 1.0)
        record = verdict(times, flow_tv, {"p": env.raw_eval(times)}, {"p": env})
        assert record["tv_fitted_slope"] == pytest.approx(-0.975, rel=1e-12)
        assert record["envelopes"]["p"]["fitted_slope"] == pytest.approx(-1.0, rel=1e-12)


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
                fn = lambda u: np.sqrt(u) * u ** (q - 1.0)
            elif kind == 1:
                q = rng.uniform(1.1, 3.0)
                fn = lambda u: u * u ** (q - 1.0)
            elif kind == 2:
                b = rng.uniform(0.3, 1.5)
                fn = lambda u: (u ** b) * np.log(1.0 + u)
            else:
                fn = lambda u: u ** 0.25 * (1.0 + u)
            y = math.exp(rng.uniform(math.log(1e-3), math.log(1e6)))
            u = invert_increasing(fn, np.array([y]), 1e-6, 1e6)[0]
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


# ---------------------------------------------------------------------------
# array evaluation: one call over a t array equals the calls at each t
# ---------------------------------------------------------------------------

def _one_of_each_family() -> dict:
    """An envelope of every family (curvature also at rho = 0), with clocks and
    phis whose bounds are vacuous at small t and decay over ARRAY_TS; the
    orlicz clock falls below 1e-16 there."""
    power = tv.BetaFunction.power
    return {
        "poincare_l2": envelope_poincare_l2(0.5, 1.3),
        "truncation_poincare": envelope_truncation_poincare(0.5, _phi_power(2.0), 1.5),
        "weak_poincare": envelope_weak_poincare(power(1.0, 0.5), _phi_power(2.0), 1.5),
        "orlicz": envelope_orlicz(tv.BetaFunction.constant(1.0), _phi_power(2.0), 1.5),
        "logsob": envelope_logsob(1.0, 0.7),
        "truncation_logsob": envelope_truncation_logsob(1.0, _phi_logbeta(2.0), 1.5),
        "weak_logsob": envelope_weak_logsob(power(1.0, 1.0), _phi_power(2.0), 1.5),
        "restricted_logsob": envelope_restricted_logsob(1.0, power(1.0, 1.0),
                                                        _phi_power(1.5), 1.5),
        "ipsi": envelope_ipsi(0.8, 1.5, 0.3),
        "hellinger": envelope_hellinger(power(1.0, 1.0), _phi_power(2.0), 1.5),
        "curvature": envelope_curvature(1.0, tv.BetaFunction.constant(1.0)),
        "curvature_rho0": envelope_curvature(0.0, power(1.0, 0.5)),
    }


# t = 0 and more points than four curvature blocks of the size that the parity
# test below sets (the shipped block is larger than this whole array)
SMALL_CURVATURE_BLOCK = 64
ARRAY_TS = np.concatenate([[0.0], np.geomspace(1e-6, 500.0, 4 * SMALL_CURVATURE_BLOCK + 3)])
XI_CLOCKS = ("weak_poincare", "orlicz", "weak_logsob", "hellinger")


class TestArrayEvaluation:
    @pytest.mark.parametrize("name", sorted(_one_of_each_family()))
    def test_array_equals_each_scalar(self, name, monkeypatch):
        # the curvature bound reads the block size at call time
        monkeypatch.setattr(envelopes, "_CURVATURE_BLOCK", SMALL_CURVATURE_BLOCK)
        assert ARRAY_TS.size > 4 * envelopes._CURVATURE_BLOCK
        env = _one_of_each_family()[name]
        vals, raw = env.eval(ARRAY_TS), env.raw_eval(ARRAY_TS)
        assert isinstance(raw, np.ndarray) and raw.shape == ARRAY_TS.shape
        # eval gives plain floats, so a count of them below 2 is a plain int
        assert type(vals) is list and len(vals) == len(ARRAY_TS)
        assert all(type(v) is float for v in vals)
        assert type(sum(v < TV_MAX for v in vals)) is int
        for t, v in zip(ARRAY_TS.tolist(), vals):
            one = env.eval(t)
            assert type(one) is float and one == v, t
        for t, r in zip(ARRAY_TS[::16].tolist(), raw[::16].tolist()):
            one = env.raw_eval(t)
            assert type(one) is float and one == r, t
        # any shape in, the same shape out
        grid = ARRAY_TS.reshape(2, -1)
        assert np.array_equal(env.eval(grid), np.reshape(vals, grid.shape))
        assert np.array_equal(env.raw_eval(grid), raw.reshape(grid.shape))

    def test_ranges_reach_vacuous_and_decayed_bounds(self):
        # the parity test above covers both sides of the maximal TV
        envs = _one_of_each_family()
        for name in ("truncation_poincare", "truncation_logsob", *XI_CLOCKS):
            vals = np.array(envs[name].eval(ARRAY_TS))
            assert (vals == TV_MAX).any() and (vals < 1.0).any(), name
        # the orlicz bound 1.5 sqrt(xi) keeps falling once xi is below 1e-16
        tail = envs["orlicz"].raw_eval(ARRAY_TS[ARRAY_TS >= 100.0])
        assert np.all(np.diff(tail) < 0) and tail[-1] < 1.5e-8

    @pytest.mark.parametrize("name", XI_CLOCKS)
    def test_xi_clock_is_max_tv_at_t_le_0(self, name):
        env = _one_of_each_family()[name]
        raw = env.raw_eval(np.array([-1.0, 0.0, 30.0]))
        assert raw[:2].tolist() == [TV_MAX, TV_MAX] and raw[2] < TV_MAX
        assert env.eval(-1.0) == env.eval(0.0) == TV_MAX

    @pytest.mark.parametrize("spec", [
        XiSpec(beta=tv.BetaFunction.constant(1.0)),
        XiSpec(beta=tv.BetaFunction.power(0.7, 1.0), log_numerator=1.0 / math.e,
               t_scale=2.0)])
    def test_xi_flags_match_scalar_calls(self, spec):
        ts = np.geomspace(1e-15, 100.0, 120)
        s, flags = xi(spec, ts, return_flag=True)
        one = [xi(spec, t, return_flag=True) for t in ts.tolist()]
        assert s.tolist() == [v for v, _ in one]
        assert flags.tolist() == [f for _, f in one]
        assert flags.any() and not flags.all()
        assert np.all(np.diff(s[~flags]) < 0)
        if spec.beta.form == "constant":
            # beta = 1: xi = e^{-t} keeps falling past 1e-16 at t = log(1e16)
            assert s[-1] == pytest.approx(math.exp(-100.0), rel=1e-9)

    def test_xi_rejects_t_le_0_anywhere_in_the_array(self):
        with pytest.raises(ValueError):
            xi(XiSpec(beta=tv.BetaFunction.constant(1.0)), np.array([0.5, 0.0]))

    def test_gamma_inverse_array_equals_scalar(self):
        gamma_inv = gamma_inverse(tv.BetaFunction.power(2.0, 1.0))
        vs = np.geomspace(1e-3, 1e25, 60)  # both constant ends and the interior
        got = gamma_inv(vs)
        assert got.tolist() == [gamma_inv(v) for v in vs.tolist()]
        assert type(gamma_inv(10.0)) is float


def _xi_reference(spec, t):
    """(xi(t), unreached) at one t by the scalar inversion loop: v solving
    beta(c e^{-v}) v = k t from v = log(c/s_hi), with numpy's exp and log on
    floats, and xi = c e^{-v}; the loop the array version must reproduce bit
    for bit."""
    c, k = spec.log_numerator, spec.t_scale
    s_hi = min(c, 1.0, spec.beta.s_max) - 1e-12
    v_lo = math.log(c / s_hi)

    def H(v):
        return float(spec.beta(c * np.exp(-np.asarray(v))) * v)

    if H(v_lo) > k * t:
        return s_hi, True
    v = _invert_reference(H, k * t, v_lo, 2.0 * v_lo + 1.0, resid_tol=1e-12)
    return float(c * np.exp(-v)), False


def _invert_reference(fn, y, lo, hi, rel_tol=1e-13, resid_tol=1e-9):
    """invert_increasing at one y by the scalar loop."""
    flo, fhi = fn(lo), fn(hi)
    n = 0
    while flo > y and n < 400 and lo > 1e-280:
        hi, fhi, lo = lo, flo, lo / 8.0
        flo = fn(lo)
        n += 1
    n = 0
    while fhi < y and n < 400 and hi < 1e280:
        lo, flo, hi = hi, fhi, hi * 8.0
        fhi = fn(hi)
        n += 1
    if flo > y or fhi < y:
        return lo if abs(flo - y) < abs(fhi - y) else hi
    scale = max(abs(y), 1e-300)
    a, b = np.log(lo), np.log(hi)
    for _ in range(300):
        m = 0.5 * (a + b)
        fm = fn(np.exp(m))
        if abs(fm - y) <= resid_tol * scale:
            return float(np.exp(m))
        if fm < y:
            a = m
        else:
            b = m
        if (b - a) <= rel_tol:
            break
    return float(np.exp(0.5 * (a + b)))


def _pinsker_reference(psi):
    """pinsker_constant by the scalar loop: the ratio at one u at a time over
    the probe grid, refined by golden_min_log on one-element arrays."""
    p1 = float(psi.psi_prime(1.0))

    def ratio(u):
        u = float(u)
        if abs(u - 1.0) < 1e-7:
            return 1.0 / float(psi.psi_second(1.0))
        den = (1.0 + u) * (float(psi.psi(u)) - p1 * (u - 1.0))
        if den <= 0:
            return float("inf")
        return (u - 1.0) ** 2 / den

    hi = 1e8
    us = np.sort(np.concatenate([[0.0], np.geomspace(1e-8, hi, 2000), [1.0]]))
    vals = np.array([ratio(u) for u in us])
    tail_u = np.geomspace(1e6, hi, 50)
    drift = np.asarray(psi.psi(tail_u), float) / tail_u - p1
    i = int(np.argmax(vals))
    c = float(vals[i])
    lo_b = us[i - 1] if i >= 1 and us[i - 1] > 0 else 1e-10
    hi_b = us[i + 1] if i + 1 < len(us) else hi
    if hi_b > lo_b:
        refined = golden_min_log(lambda u: np.array([-ratio(u[0])]),
                                 np.array([lo_b]), np.array([hi_b]))
        c = max(c, -float(refined[0]))
    c = max(c, 1.0 / float(drift[-1]))
    return math.sqrt(2.0 * c * (1.0 + 1e-9))


# t at which numpy's exp and log and math's give the orlicz clock below
# different bisections (found on a host whose numpy uses AVX-512 exp and
# log); the array loop must still match the scalar one there
ORLICZ_FLIP_TS = (0.0014194028993184656, 0.0025396356498672682, 0.006304460178455639,
                  0.03878917515779615, 0.3136983742125422, 6.314530348828657,
                  17.87664201201561)


INF, NAN = float("inf"), float("nan")


class TestStrictExpLog:
    """numpy's exp, raising where math.exp raises."""

    @pytest.mark.parametrize("ours, theirs, xs", [
        (_exp, math.exp, (0.0, -0.0, 1.0, -700.0, -745.0, -746.0, -1e4, 709.78, 709.79,
                          1e4, INF, -INF, NAN)),
    ], ids=["exp"])
    def test_raises_exactly_where_math_raises(self, ours, theirs, xs):
        before = np.geterr()
        for x in xs:
            try:
                want = theirs(x)
            except (OverflowError, ValueError) as exc:
                for arg in (x, np.array([1.0, x, 0.5])):  # one bad entry is enough
                    with pytest.raises(type(exc)):
                        ours(arg)
                continue
            for arg in (x, np.full(5, x)):
                got = np.asarray(ours(arg))
                assert np.all(got == pytest.approx(want, rel=4e-16, abs=0.0, nan_ok=True))
        assert np.geterr() == before

    def test_exp_underflow_and_specials_are_exact(self):
        got = _exp(np.array([-1e4, -INF, INF, 0.0]))
        assert got.tolist() == [0.0, 0.0, INF, 1.0]
        assert np.isnan(_exp(NAN))

    def test_overflow_reaches_the_caller(self):
        # valid_from's t = 1e4 probe overflows e^{t/2C_P}; the search reads
        # that as a failure (ROADMAP item 1), so the error must propagate
        env = envelope_truncation_poincare(0.5, _phi_power(1.5), 1.0)
        with pytest.raises(OverflowError):
            env.raw_eval(1e4)
        with pytest.raises(OverflowError):
            env.raw_eval(np.array([1.0, 1e4]))

    def test_valid_from_propagates_errors_other_than_overflow(self):
        # only an overflow, as of the t = 1e4 probe, reads as a failed search
        def bound(t):
            if (t > 1.0).any():
                raise ValueError("no bound past t = 1")
            return np.full(t.shape, 3.0)
        env = DecayEnvelope("raises", {}, bound)
        assert env.raw_eval(1e-8) == 3.0
        with pytest.raises(ValueError, match="no bound past t = 1"):
            _valid_from(env)


class TestArrayHelpers:
    def test_xi_equals_the_scalar_loop(self):
        power = tv.BetaFunction.power
        clocks = (XiSpec(beta=beta_orlicz(power(1.0, 0.5), _phi_power(2.0))),
                  XiSpec(beta=power(1.0, 0.5), log_numerator=1.0 / math.e, t_scale=2.0),
                  XiSpec(beta=tv.BetaFunction.constant(1.0)))
        ts = np.concatenate([np.geomspace(1e-15, 100.0, 300), ORLICZ_FLIP_TS])
        for spec in clocks:
            s, flags = xi(spec, ts, return_flag=True)
            assert (list(zip(s.tolist(), flags.tolist()))
                    == [_xi_reference(spec, t) for t in ts.tolist()])

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, 1.0)])
    def test_invert_increasing_needs_0_lt_lo_lt_hi(self, lo, hi):
        with pytest.raises(ValueError, match="need 0 < lo < hi"):
            invert_increasing(np.sqrt, np.array([1.0]), lo, hi)

    def test_invert_increasing_equals_the_scalar_loop(self):
        ys = np.concatenate([np.geomspace(1e-9, 1e9, 200), [-1.0, 0.0, 1e300]])
        for fn, ref in ((lambda u: np.sqrt(u) * u, lambda u: math.sqrt(u) * u),
                        (lambda u: u / (1.0 + u), lambda u: u / (1.0 + u)),
                        (lambda u: u * u + 3.0 * u, lambda u: u * u + 3.0 * u)):
            got = invert_increasing(fn, ys, 1e-2, 10.0)
            assert got.tolist() == [_invert_reference(ref, y, 1e-2, 10.0)
                                    for y in ys.tolist()]

    def test_pinsker_constant_equals_the_scalar_loop(self, psi_quad_spliced,
                                                     psi_entropy_spliced, psi_centered,
                                                     psi_ulogu, psi_linear):
        for prof in (psi_quad_spliced, psi_entropy_spliced,
                     build_psi_from_eta(eta_power(1.5)), build_psi_from_eta(eta_power(1.2)),
                     psi_centered, psi_ulogu, psi_linear):
            assert pinsker_constant(prof) == _pinsker_reference(prof), prof.name

    def test_invert_increasing_array_equals_scalar_calls(self):
        fn = lambda u: u / (1.0 + u)  # increasing, with values in (0, 1)
        lo, hi = 1e-2, 10.0           # fn(lo) ~ 0.0099, fn(hi) ~ 0.909
        ys = np.array([1e-5, 0.3, 0.5, 0.99, 1.5, -0.2, 0.0])
        got = invert_increasing(fn, ys, lo, hi)
        assert got.tolist() == [invert_increasing(fn, ys[k:k + 1], lo, hi)[0]
                                for k in range(ys.size)]
        assert got[0] < lo                   # bracket expanded downward
        assert got[3] > hi                   # bracket expanded upward
        assert got[4] > 1e280                # out of reach above: the upper end
        assert got[5] < 1e-279 and got[6] < 1e-279  # out of reach below: an end near 1e-280
        assert np.allclose(fn(got[:4]), ys[:4], rtol=1e-9)
        grid = ys[:6].reshape(2, 3)
        assert np.array_equal(invert_increasing(fn, grid, lo, hi), got[:6].reshape(2, 3))

    def test_golden_min_log_array_equals_scalar_calls(self):
        centers = np.array([1e-3, 0.2, 1.0, 7.0])
        fn = lambda x: (np.log(x) - np.log(centers)) ** 2 + centers
        lo, hi = centers / 50.0, centers * 9.0
        v = golden_min_log(fn, lo, hi)
        for k in range(centers.size):
            c = centers[k:k + 1]
            one = golden_min_log(lambda z: (np.log(z) - np.log(c)) ** 2 + c,
                                 lo[k:k + 1], hi[k:k + 1])
            assert one.shape == (1,) and v[k] == one[0]

    def test_scan_min_log_rows_equal_scalar_scans(self):
        cs = np.array([1e-6, 1e-3, 0.2, 1.0, 7.0])
        # one row per c: the scan grid (40,) and the refinement cells (5, 3)
        # both broadcast against cs[:, None]
        v = scan_min_log(lambda z: cs[:, None] / z + z, 1e-8, 1e3, n_scan=40)
        for k in range(cs.size):
            c = cs[k:k + 1, None]
            one = scan_min_log(lambda z: c / z + z, 1e-8, 1e3, n_scan=40)
            assert one.shape == (1,) and v[k] == one[0]
            assert one[0] == pytest.approx(2.0 * math.sqrt(cs[k]), rel=1e-9)
