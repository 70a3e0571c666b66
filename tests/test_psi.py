import math

import numpy as np
import pytest

import tvdecay as tv
from tvdecay.errors import (
    BadSplice,
    InadmissibleEta,
    NotPinskerAdmissible,
    ZeroFunction,
)
from tvdecay.psi import (
    EtaProfile,
    build_almost_linear_eta,
    build_psi_from_eta,
    eta_entropy,
    eta_power,
    eta_quadratic,
    eta_slowlog,
    f_bar,
    orlicz_gauge_N,
    psi_from_functions,
)
from conftest import random_density


class TestEtaAdmissibility:
    def test_standard_profiles_admissible(self):
        for eta in (eta_quadratic(), eta_power(1.5), eta_entropy(), eta_slowlog()):
            flags = eta.admissibility_flags()
            assert all(flags.values()), (eta.name, flags)

    def test_sublinear_eta_rejected(self):
        # eta(u) = u stays linear: not superlinear
        eta = EtaProfile(eta=lambda u: np.asarray(u, float),
                         eta_prime=lambda u: np.ones_like(np.asarray(u, float)),
                         eta_second=lambda u: np.full_like(np.asarray(u, float), 1e-12),
                         b=0.0, name="linear")
        with pytest.raises(InadmissibleEta):
            build_psi_from_eta(eta)

    def test_power_constraint(self):
        with pytest.raises(InadmissibleEta):
            eta_power(2.5)  # eta'' increasing


class TestBuildPsi:
    def test_quadratic_eta_gives_quadratic_psi(self, psi_quad_spliced):
        # eta = u^2 has psi'' == 1, so psi(u) = (u^2 - u)/2 for ALL u
        u = np.array([0.0, 0.3, 1.0, 2.0, 2.5, 10.0, 1e4, 1e8])
        expected = 0.5 * (u * u - u)
        err = np.abs(psi_quad_spliced.psi(u) - expected)
        assert np.all(err <= 1e-12 * np.maximum(np.abs(expected), 1.0))

    def test_psi_at_one_is_zero(self, psi_quad_spliced, psi_entropy_spliced):
        for psi in (psi_quad_spliced, psi_entropy_spliced):
            assert float(psi.psi(1.0)) == 0.0

    def test_psi_nonpositive_on_unit_interval(self, psi_entropy_spliced):
        u = np.linspace(0.0, 1.0, 101)
        assert np.all(psi_entropy_spliced.psi(u) <= 1e-15)

    def test_quadratic_below_splice(self, psi_entropy_spliced):
        psi = psi_entropy_spliced
        u = np.linspace(0.0, psi.a - 1e-9, 64)
        assert np.max(np.abs(psi.psi(u) - 0.5 * (u * u - u))) < 1e-12

    def test_second_derivative_continuous_at_splice(self, psi_entropy_spliced):
        psi = psi_entropy_spliced
        a = psi.a
        assert float(psi.psi_second(a - 1e-12)) == pytest.approx(1.0, abs=1e-9)
        assert float(psi.psi_second(a + 1e-12)) == pytest.approx(1.0, abs=1e-6)

    def test_convexity_on_probe_grid(self, psi_entropy_spliced):
        u = np.geomspace(1e-6, 1e8, 500)
        assert np.all(psi_entropy_spliced.psi_second(u) >= 0.0)

    def test_entropy_eta_sandwich(self, psi_entropy_spliced):
        # psi <= c eta above the splice and psi >= eta/(2 eta''(a)) for large u
        eta = eta_entropy()
        psi = psi_entropy_spliced
        d2a = float(eta.eta_second(psi.a))
        u = np.geomspace(20.0, 1e8, 200)
        assert np.all(psi.psi(u) >= eta.eta(u) / (2.0 * d2a))
        assert np.all(psi.psi(u) <= (2.0 / d2a) * eta.eta(u))

    def test_bad_splice(self):
        with pytest.raises(BadSplice):
            build_psi_from_eta(eta_quadratic(), a=1.5)

    def test_default_splice(self, psi_quad_spliced):
        assert psi_quad_spliced.a == pytest.approx(2.1)

    def test_h_increasing_from_zero(self, psi_quad_spliced, psi_ulogu):
        assert float(psi_quad_spliced.H(0.0)) == 0.0
        u = np.geomspace(1e-4, 1e6, 100)
        for psi in (psi_quad_spliced, psi_ulogu):
            hv = psi.H(u)
            assert np.all(np.diff(hv) > 0)

    def test_h_quadratic_is_identity(self, psi_quad_spliced):
        u = np.array([0.5, 1.0, 7.0, 1e3])
        assert np.max(np.abs(psi_quad_spliced.H(u) - u)) < 1e-9
        assert np.max(np.abs(psi_quad_spliced.H_inverse(u) - u)) < 1e-8

    def test_h_ulogu_closed_form(self, psi_ulogu):
        # psi'' = 1/u gives H(u) = 2 sqrt(u)
        u = np.array([0.25, 1.0, 4.0, 100.0])
        assert np.max(np.abs(psi_ulogu.H(u) / (2.0 * np.sqrt(u)) - 1.0)) < 1e-4


class TestPinskerConstant:
    def test_centered_quadratic(self, psi_centered):
        # ratio sup = 1 attained at u = 0, c_psi = sqrt 2
        assert psi_centered.c_pinsker == pytest.approx(math.sqrt(2.0), rel=1e-6)

    def test_ulogu_in_range(self, psi_ulogu):
        assert 1.0 <= psi_ulogu.c_pinsker <= 1.5

    def test_almost_linear_finite(self, psi_linear):
        # liminf psi(u)/u - psi'(1) = 1/4 makes the tail limit 4, c = sqrt 8
        assert psi_linear.c_pinsker == pytest.approx(math.sqrt(8.0), rel=1e-6)

    def test_spliced_quadratic(self, psi_quad_spliced):
        # ratio = 2/(1+u), sup = 2 at u = 0
        assert psi_quad_spliced.c_pinsker == pytest.approx(2.0, rel=1e-6)

    def test_inadmissible_tail(self):
        # psi with psi(u)/u -> psi'(1): no positive drift at infinity
        with pytest.raises(NotPinskerAdmissible):
            psi_from_functions(
                lambda u: np.asarray(u, float) - 1.0,
                lambda u: np.ones_like(np.asarray(u, float)),
                lambda u: np.full_like(np.asarray(u, float), 1e-8),
                name="degenerate")

    def test_soundness_on_random_discrete_pairs(self, psi_quad_spliced, psi_ulogu,
                                                psi_linear):
        rng = np.random.default_rng(42)
        n = 10_000
        P = rng.random((n, 5)) + 1e-3
        P /= P.sum(axis=1, keepdims=True)
        Q = rng.random((n, 5)) + 1e-3
        Q /= Q.sum(axis=1, keepdims=True)
        ratio = Q / P
        tv_dist = np.abs(Q - P).sum(axis=1)
        for psi in (psi_quad_spliced, psi_ulogu, psi_linear):
            i_psi = np.maximum((np.asarray(psi.psi(ratio)) * P).sum(axis=1), 0.0)
            violations = int(np.sum(tv_dist > psi.c_pinsker * np.sqrt(i_psi) + 1e-9))
            assert violations == 0, psi.name


class TestOrliczGauge:
    def test_fixed_point(self, gaussian_measure, psi_quad_spliced):
        # int H^{-1}(f) dmu = 1 at f = H(1) means N(f) = 1 (H = id here)
        f = np.full(4001, float(psi_quad_spliced.H(1.0)))
        n = orlicz_gauge_N(f, gaussian_measure, psi_quad_spliced)
        assert n == pytest.approx(1.0, abs=1e-7)

    def test_homogeneity(self, gaussian_measure, psi_ulogu):
        rng = np.random.default_rng(23)
        f = random_density(gaussian_measure, rng) + 0.2
        n1 = orlicz_gauge_N(f, gaussian_measure, psi_ulogu)
        n3 = orlicz_gauge_N(3.0 * f, gaussian_measure, psi_ulogu)
        assert abs(n3 - 3.0 * n1) <= 1e-8 * 3.0 * n1 + 1e-10

    def test_l2_ordering_in_sqrt_regime(self, gaussian_measure, psi_quad_spliced):
        # H(u) = u >= sqrt(u) for u >= 1: N^2(f) <= int f^2 dmu
        rng = np.random.default_rng(29)
        for _ in range(5):
            f = random_density(gaussian_measure, rng, smooth=False) + 0.1
            n = orlicz_gauge_N(f, gaussian_measure, psi_quad_spliced)
            assert n ** 2 <= tv.integrate(gaussian_measure, f * f) + 1e-8

    def test_zero_function(self, gaussian_measure, psi_quad_spliced):
        with pytest.raises(ZeroFunction):
            orlicz_gauge_N(np.zeros(4001), gaussian_measure, psi_quad_spliced)


class TestFBar:
    def test_quadratic_limit_half(self, psi_quad_spliced):
        # H(u) = u so F-bar = (u^2-u)/(2u^2) -> 1/2
        fb, checks = f_bar(psi_quad_spliced)
        assert float(fb(1e6)) == pytest.approx(0.5, abs=1e-3)
        assert checks["nondecreasing"]
        assert checks["doubling_lambda"] is not None
        assert checks["fbar_over_u_nonincreasing"]

    def test_lower_bound_ratio(self, psi_quad_spliced, psi_entropy_spliced):
        # F-bar(u) >= c psi/(u^2 psi'') on the probe grid
        for psi in (psi_quad_spliced, psi_entropy_spliced):
            _, checks = f_bar(psi)
            assert checks["lower_bound_c"] >= 0.25

    def test_dieudonne_asymptotics(self):
        # u psi'''/psi'' -> 0 forces H(u) ~ u sqrt(psi''(u))
        psi = build_psi_from_eta(eta_slowlog())
        _, checks = f_bar(psi)
        assert abs(checks["u_psi3_over_psi2_tail"]) < 0.1
        assert checks["h_over_u_sqrt_psi2_tail"] == pytest.approx(1.0, abs=0.05)


class TestAlmostLinearEta:
    def test_constant_F_divergent(self):
        res = build_almost_linear_eta(
            lambda u: np.full_like(np.asarray(u, float), 3.0), 3.0)
        assert res.wang_finite is False

    def test_log_squared_F_convergent(self):
        res = build_almost_linear_eta(
            lambda u: np.log(np.asarray(u, float)) ** 2, 3.0)
        assert res.wang_finite is True
        # 1/tau(u) = int_u^inf ds/(s log^2 s) = 1/log(u)
        assert float(res.theta_prime(1e8)) == pytest.approx(-1.0 / math.log(1e8),
                                                            rel=1e-3)

    def test_theta_prime_vanishes_when_finite(self):
        res = build_almost_linear_eta(
            lambda u: np.log(np.asarray(u, float)) ** 2, 3.0)
        tp = np.array([float(res.theta_prime(u)) for u in
                       [10.0, 1e2, 1e4, 1e6, 1e8]])
        assert np.all(np.diff(tp) > 0)  # increasing towards 0
        assert np.all(tp < 0)

    def test_eta_convex(self):
        res = build_almost_linear_eta(
            lambda u: np.log(np.asarray(u, float)) ** 2, 3.0)
        u = np.geomspace(4.0, 1e7, 100)
        eta_vals = np.asarray(res.eta(u), float)
        # discrete convexity in the log-spaced sense via secant slopes
        slopes = np.diff(eta_vals) / np.diff(u)
        assert np.all(np.diff(slopes) >= -1e-8)
