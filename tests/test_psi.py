import math

import numpy as np
import pytest

from tvdecay.errors import BadSplice, InadmissibleEta, NotPinskerAdmissible
from tvdecay.psi import (
    _ETA_CHUNK,
    EtaProfile,
    build_psi_from_eta,
    eta_entropy,
    eta_power,
    eta_quadratic,
)
from conftest import psi_from_functions


class TestEtaAdmissibility:
    def test_standard_profiles_admissible(self):
        for eta in (eta_quadratic(), eta_power(1.5), eta_entropy()):
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


def _where_formulas(eta, a):
    """psi, psi', psi'' as eta on every entry and np.where keeping u >= a:
    what the spliced profile must reproduce bit for bit."""
    d2a, d1a, ea = (float(f(a)) for f in (eta.eta_second, eta.eta_prime, eta.eta))
    psi_a = 0.5 * (a * a - a)

    def psi(u):
        uc = np.maximum(u, a)
        above = psi_a + (a - 0.5) * (uc - a) + (eta.eta(uc) - ea - d1a * (uc - a)) / d2a
        return np.where(u >= a, above, 0.5 * (u * u - u))

    def psi_prime(u):
        above = (a - 0.5) + (eta.eta_prime(np.maximum(u, a)) - d1a) / d2a
        return np.where(u >= a, above, u - 0.5)

    def psi_second(u):
        return np.where(u >= a, eta.eta_second(np.maximum(u, a)) / d2a, 1.0)

    return psi, psi_prime, psi_second


@pytest.mark.parametrize("eta", [eta_quadratic(), eta_entropy(), eta_power(1.5),
                                 eta_power(1.25)], ids=lambda e: e.name)
@pytest.mark.parametrize("a", [None, 3.7])
def test_spliced_equals_the_where_formula(eta, a):
    prof = build_psi_from_eta(eta, a)
    a = prof.a
    near = np.array([np.nextafter(a, 0.0), a, np.nextafter(a, np.inf)])
    u = np.concatenate([near, [0.0, 1.0, np.nan], np.geomspace(1e-6, 1e8, 400)])
    rng = np.random.default_rng(5)
    block = rng.permutation(u)[:400].reshape(8, 50)
    # a block wider than a chunk of eta's entries, ending on a ragged chunk
    wide = rng.choice(u, size=(2 * _ETA_CHUNK // 1001 + 3, 1001))
    for got, want in zip((prof.psi, prof.psi_prime, prof.psi_second),
                         _where_formulas(eta, a)):
        for x in (u, block, wide, near[1:2], np.array([], float), np.empty((3, 0))):
            assert got(x).tobytes() == want(x).tobytes()
        for x in (a, np.nextafter(a, 0.0), 0.5):  # a 0-d input gives a 0-d array
            g = got(x)
            assert isinstance(g, np.ndarray) and g.shape == ()
            assert g.tobytes() == want(np.asarray(x)).tobytes()


@pytest.mark.parametrize("eta", [eta_quadratic(), eta_entropy(), eta_power(1.5)],
                         ids=lambda e: e.name)
def test_spliced_writes_into_out_and_mask(eta):
    # the same bytes as a call without them, and u is left as it was
    prof = build_psi_from_eta(eta)
    a = prof.a
    u = np.concatenate([[np.nextafter(a, 0.0), a, 0.0, 1.0, np.nan],
                        np.geomspace(1e-6, 1e8, 395)])
    block = np.random.default_rng(7).permutation(u).reshape(8, 50)
    for f in (prof.psi, prof.psi_prime, prof.psi_second):
        for x in (u, block, np.array([], float), np.asarray(a)):
            want, kept = f(x), x.copy()
            out, mask = np.full(x.shape, 7.0), np.zeros(x.shape, bool)
            got = f(x, out=out, mask=mask)
            assert got is out and got.tobytes() == want.tobytes()
            assert x.tobytes() == kept.tobytes()
            assert np.array_equal(mask, x >= a)


def test_spliced_calls_eta_only_at_or_above_a():
    seen = []
    base = eta_entropy()
    spy = EtaProfile(eta=lambda u: seen.append(np.asarray(u).copy()) or base.eta(u),
                     eta_prime=base.eta_prime, eta_second=base.eta_second, b=base.b)
    prof = build_psi_from_eta(spy)
    seen.clear()
    prof.psi(np.array([0.5, 1.0, prof.a, 10.0]))
    assert [x.tolist() for x in seen] == [[prof.a, 10.0]]
    # a block: its entries at or above a, in order, at most _ETA_CHUNK at a time
    block = np.random.default_rng(11).uniform(0.0, 2.0 * prof.a, (20, 1001))
    seen.clear()
    prof.psi(block)
    assert len(seen) > 1 and max(len(x) for x in seen) <= _ETA_CHUNK
    assert np.concatenate(seen).tobytes() == block[block >= prof.a].tobytes()


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
