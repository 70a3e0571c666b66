import inspect
import math

import numpy as np
import pytest
from scipy.special import erf

import tvdecay as tv
from tvdecay.errors import (
    GridMismatch,
    InvalidSpec,
    NonIntegrablePotential,
    NotADensity,
)
from tvdecay.measures import (
    BlockWorkspace,
    Functionals,
    _gradient,
    eigen_perturbation,
    functionals,
    shifted_gaussian_density,
    step_density,
    tail_ratio_density,
)
from tvdecay.psi import build_psi_from_eta, eta_power
from conftest import random_density


class TestBuildMeasure:
    def test_gaussian_partition_function(self, gaussian_measure):
        # Z = int exp(-x^2) dx = sqrt(pi)
        assert math.exp(gaussian_measure.log_partition) == pytest.approx(
            math.sqrt(math.pi), rel=1e-9)

    def test_gaussian_median_zero(self, gaussian_measure):
        assert abs(gaussian_measure.median) < 1e-9

    def test_exponential_partition_function(self, exponential_measure):
        # int exp(-2|x|) dx = 1; the kink at 0 limits trapezoid accuracy
        assert math.exp(exponential_measure.log_partition) == pytest.approx(1.0, abs=1e-4)
        fine = tv.build_measure(tv.PotentialSpec.power(1.0), 80001)
        assert math.exp(fine.log_partition) == pytest.approx(1.0, abs=1e-7)

    def test_normalization(self, gaussian_measure, exponential_measure):
        for mu in (gaussian_measure, exponential_measure):
            assert tv.integrate(mu, np.ones_like(mu.grid)) == pytest.approx(1.0, abs=1e-9)

    def test_cdf_invariants(self, gaussian_measure):
        mu = gaussian_measure
        assert np.all(np.diff(mu.cdf) >= 0)
        assert mu.cdf[0] <= 1e-12
        assert mu.cdf[-1] >= 1.0 - 1e-12
        k = np.searchsorted(mu.grid, mu.median)
        cdf_at_median = np.interp(mu.median, mu.grid, mu.cdf)
        assert abs(cdf_at_median - 0.5) < 1e-6

    def test_partition_stable_under_refinement_smooth(self):
        # doubling n changes Z by < 1e-6 relative for smooth potentials
        for spec in (tv.PotentialSpec.gaussian(), tv.PotentialSpec.power(4.0),
                     tv.PotentialSpec.power(2.0, scale=1.3)):
            z1 = math.exp(tv.build_measure(spec, 4001).log_partition)
            z2 = math.exp(tv.build_measure(spec, 8001).log_partition)
            assert abs(z2 - z1) / z1 < 1e-6

    def test_partition_refinement_kinked(self):
        # |x| has an O(dx^2) kink error; quantified, not hidden
        z1 = math.exp(tv.build_measure(tv.PotentialSpec.power(1.0), 4001).log_partition)
        z2 = math.exp(tv.build_measure(tv.PotentialSpec.power(1.0), 8001).log_partition)
        assert abs(z2 - z1) / z1 < 1e-4

    def test_tail_condition(self, gaussian_measure):
        mu = gaussian_measure
        assert mu.pdf[0] <= 1e-15 * mu.pdf.max()
        assert mu.pdf[-1] <= 1e-15 * mu.pdf.max()

    def test_non_integrable_raises(self):
        flat = tv.PotentialSpec.tabulated([-5, -1, 0, 1, 5], [0, 0, 0, 0, 0])
        with pytest.raises(NonIntegrablePotential):
            tv.build_measure(flat, 501)

    def test_truncation_grows_past_200_while_finite(self):
        # exp(-2 |x|^0.5) <= 1e-16 needs |x| >= (log(1e16) / 2)^2 = 339.32; |x|^0.001
        # stays below 2.1 at every finite x
        mu = tv.build_measure(tv.PotentialSpec.power(0.5), 201)
        assert mu.grid[-1] == -mu.grid[0] == pytest.approx((8.0 * math.log(10.0)) ** 2,
                                                         rel=1e-10)
        with pytest.raises(NonIntegrablePotential, match="every finite"):
            tv.build_measure(tv.PotentialSpec.power(1e-3), 201)

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            tv.build_measure(tv.PotentialSpec.gaussian(), 51)
        with pytest.raises(InvalidSpec):
            tv.PotentialSpec.tabulated([0, 1, 2, 3], [0.0, np.nan, 0.0, 0.0])


class TestIntegrate:
    def test_constant(self, gaussian_measure):
        assert tv.integrate(gaussian_measure, np.ones(4001)) == pytest.approx(1.0, abs=1e-9)

    def test_second_moment(self, gaussian_measure):
        # E x^2 of N(0, 1/2) is 1/2
        val = tv.integrate(gaussian_measure, gaussian_measure.grid ** 2)
        assert val == pytest.approx(0.5, abs=1e-6)

    def test_odd_function_vanishes(self, gaussian_measure):
        assert abs(tv.integrate(gaussian_measure, gaussian_measure.grid)) < 1e-9

    def test_grid_mismatch(self, gaussian_measure):
        with pytest.raises(GridMismatch):
            tv.integrate(gaussian_measure, np.ones(100))


class TestTvDistance:
    def test_identity(self, gaussian_measure):
        assert tv.tv_distance(gaussian_measure, np.ones(4001)) == 0.0

    def test_step(self, gaussian_measure_even):
        mu = gaussian_measure_even
        h = np.where(mu.grid > 0, 2.0, 0.0)
        assert tv.tv_distance(mu, h) == pytest.approx(1.0, abs=1e-9)

    def test_shifted_gaussian_closed_form(self, gaussian_measure):
        # TV(N(m, 1/2), N(0, 1/2)) = 2 erf(m / (2 sigma sqrt2)), sigma^2 = 1/2
        mu = gaussian_measure
        m = 0.5
        h = shifted_gaussian_density(mu, m)
        expected = 2.0 * erf(m / (2.0 * math.sqrt(0.5) * math.sqrt(2.0)))
        assert tv.tv_distance(mu, h) == pytest.approx(expected, abs=1e-6)

    def test_not_a_density(self, gaussian_measure):
        with pytest.raises(NotADensity):
            tv.tv_distance(gaussian_measure, np.full(4001, 2.0))
        h = np.ones(4001)
        h[100] = -0.5
        with pytest.raises(NotADensity):
            tv.tv_distance(gaussian_measure, h)

    def test_mixture_identity(self, gaussian_measure):
        # tv(mu, (h+1)/2) = tv(mu, h)/2, exactly
        rng = np.random.default_rng(7)
        for _ in range(5):
            h = random_density(gaussian_measure, rng)
            t_full = tv.tv_distance(gaussian_measure, h)
            t_half = tv.tv_distance(gaussian_measure, 0.5 * (h + 1.0))
            assert abs(t_half - 0.5 * t_full) < 1e-12


class TestHellinger:
    def test_identity(self, gaussian_measure):
        assert tv.functionals(gaussian_measure, np.ones(4001)).hellinger == 0.0

    def test_step(self, gaussian_measure_even):
        mu = gaussian_measure_even
        h = np.where(mu.grid > 0, 2.0, 0.0)
        assert tv.functionals(mu, h).hellinger == pytest.approx(2.0 - math.sqrt(2.0),
                                                                abs=1e-9)

    def test_sandwich(self, gaussian_measure):
        # d_H <= 2 TV <= 4 sqrt(d_H) for every density
        rng = np.random.default_rng(11)
        for smooth in (True, False):
            for _ in range(10):
                h = random_density(gaussian_measure, rng, smooth=smooth)
                dh = tv.functionals(gaussian_measure, h).hellinger
                tvd = tv.tv_distance(gaussian_measure, h)
                assert dh <= 2.0 * tvd + 1e-9
                assert 2.0 * tvd <= 4.0 * math.sqrt(dh) + 1e-9


class TestFunctionals:
    def test_all_zero_at_equilibrium(self, gaussian_measure, psi_quad_spliced):
        f = functionals(gaussian_measure, np.ones(4001), psi=psi_quad_spliced)
        assert f.tv == 0 and f.hellinger == 0 and f.variance == 0
        assert f.entropy == 0 and f.i_psi == 0
        assert f.v_reverse == pytest.approx(0, abs=1e-12)
        assert f.e_reverse == pytest.approx(0, abs=1e-12)

    def test_centered_psi_matches_variance(self, gaussian_measure, psi_centered):
        rng = np.random.default_rng(3)
        h = random_density(gaussian_measure, rng)
        f = functionals(gaussian_measure, h, psi=psi_centered)
        assert abs(f.i_psi - f.variance) < 1e-12

    def test_reverse_bounds_for_minorized_density(self, gaussian_measure):
        rng = np.random.default_rng(5)
        h = 0.5 * (random_density(gaussian_measure, rng) + 1.0)
        f = functionals(gaussian_measure, h)
        assert f.v_reverse is not None and f.v_reverse <= 1.0 + 1e-12
        assert f.e_reverse is not None and f.e_reverse <= math.log(2.0) + 1e-12

    def test_reverse_null_without_lower_bound(self, gaussian_measure_even):
        h = np.where(gaussian_measure_even.grid > 0, 2.0, 0.0)
        f = functionals(gaussian_measure_even, h)
        assert f.v_reverse is None and f.e_reverse is None

    def test_null_psi_only_nulls_ipsi(self, gaussian_measure):
        rng = np.random.default_rng(9)
        h = random_density(gaussian_measure, rng)
        f = functionals(gaussian_measure, h, psi=None)
        assert f.i_psi is None and f.tv > 0

    def test_jensen_nonnegative_ipsi(self, gaussian_measure, psi_quad_spliced,
                                     psi_ulogu, psi_linear):
        rng = np.random.default_rng(13)
        for psi in (psi_quad_spliced, psi_ulogu, psi_linear):
            for _ in range(5):
                h = random_density(gaussian_measure, rng, smooth=False)
                f = functionals(gaussian_measure, h, psi=psi)
                assert f.i_psi >= -1e-12


def _reference_functionals(mu, h, psi=None, mixture=False):
    """The functionals of one density, each integral a scalar sum: the
    reference that every row of a block must equal bit for bit."""
    h_min = float(h.min())
    h = np.maximum(h, 0.0)

    def integral(g):
        return float(np.sum(mu.quadrature * g))
    i_psi = dissipation = v_rev = e_rev = None
    if psi is not None:
        i_psi = integral(psi.psi(h))
        grad = np.gradient(h, mu.dx)
        dissipation = 0.5 * integral(np.asarray(psi.psi_second(h), float) * grad * grad)
    g = 0.5 * (1.0 + h) if mixture else h
    if g.min() >= 0.5 - 1e-12:
        v_rev = integral(1.0 / g) - 1.0
        e_rev = integral(-np.log(g))
    return Functionals(
        tv=integral(np.abs(h - 1.0)), hellinger=2.0 * integral(1.0 - np.sqrt(h)),
        variance=integral((h - 1.0) ** 2),
        entropy=integral(h * np.log(np.where(h > 0, h, 1.0))), i_psi=i_psi,
        dissipation=dissipation, v_reverse=v_rev, e_reverse=e_rev,
        mass=integral(h), min_h=h_min)


class TestFunctionalsBlock:
    """functionals on a (rows, n) block: one float array per field, nan for
    None, each row bit for bit the one-density value."""

    @pytest.fixture(scope="class")
    def mu(self):
        return tv.build_measure(tv.PotentialSpec.gaussian(), 1001)

    @pytest.fixture(scope="class")
    def block(self, mu):
        # rows above 1/2, rows with zeros and a row at equilibrium, so the
        # reversed pair is defined on some rows and not on others
        rng = np.random.default_rng(83)
        rows = [0.5 * (1.0 + random_density(mu, rng)) for _ in range(3)]
        rows += [random_density(mu, rng, smooth=False), step_density(mu),
                 np.ones(len(mu.grid)), eigen_perturbation(mu, 0.9)]
        return np.array(rows)

    @pytest.mark.parametrize("mixture", [False, True])
    @pytest.mark.parametrize("psi_name", ["none", "quadratic", "entropy", "power"])
    def test_rows_equal_one_density_calls(self, mu, block, psi_quad_spliced,
                                          psi_entropy_spliced, psi_name, mixture):
        psi = {"none": None, "quadratic": psi_quad_spliced,
               "entropy": psi_entropy_spliced,
               "power": build_psi_from_eta(eta_power(1.5))}[psi_name]
        got = functionals(mu, block, psi, mixture=mixture)
        undefined = 0
        for k, h_k in enumerate(block):
            one = functionals(mu, h_k, psi, mixture=mixture)
            assert one == _reference_functionals(mu, h_k, psi, mixture), k
            for field in inspect.signature(Functionals).parameters.values():
                want, col = getattr(one, field.name), getattr(got, field.name)
                assert col.shape == (len(block),) and col.dtype == float
                if want is None:
                    undefined += 1
                    assert math.isnan(col[k]), (field.name, k)
                else:
                    assert col[k] == want, (field.name, k)
        assert undefined > 0 or (psi is not None and mixture)

    def test_one_density_gives_floats_and_none(self, mu, block, psi_quad_spliced):
        for h, psi in ((block[0], psi_quad_spliced), (block[4], None)):
            f = functionals(mu, h, psi)
            for field in inspect.signature(Functionals).parameters.values():
                value = getattr(f, field.name)
                assert value is None or type(value) is float, field.name
        assert functionals(mu, block[4]).v_reverse is None
        assert functionals(mu, block[4]).i_psi is None

    @pytest.mark.parametrize("fault", ["negative", "off_mass", "nan"])
    def test_bad_middle_row_raises_its_own_message(self, mu, block, fault):
        bad = block.copy()
        if fault == "negative":
            bad[3, 500] = -1e-3
        elif fault == "off_mass":
            bad[3] *= 1.01
        else:
            bad[3, 17] = np.nan
        with pytest.raises(NotADensity) as one:
            functionals(mu, bad[3])
        with pytest.raises(NotADensity) as rows:
            functionals(mu, bad)
        assert str(rows.value) == str(one.value)

    def test_first_bad_row_gives_the_message(self, mu, block):
        bad = block.copy()
        bad[2] *= 1.5
        bad[5] *= 0.5
        with pytest.raises(NotADensity, match=r"int h dmu = 1\.50000000"):
            functionals(mu, bad)
        bad[4, 10] = -2e-3
        bad[1, 20] = -1e-3
        with pytest.raises(NotADensity, match=r"min -1\.000e-03"):
            functionals(mu, bad)

    def test_block_width_must_match_the_grid(self, mu, block):
        with pytest.raises(GridMismatch):
            functionals(mu, block[:, 1:])

    @pytest.mark.parametrize("mixture", [False, True])
    def test_leaves_its_input_unchanged(self, mu, block, psi_quad_spliced, mixture):
        # a value just below 0 passes the check and is clipped in scratch;
        # row 4 is the step, which is 0 left of the median
        h = block.copy()
        assert h[4, 10] == 0.0
        h[4, 10] = -1e-13
        before = h.copy()
        rows = functionals(mu, h, psi_quad_spliced, mixture=mixture)
        one = functionals(mu, h[4], psi_quad_spliced, mixture=mixture)
        assert h.tobytes() == before.tobytes()
        assert rows.min_h[4] == one.min_h == -1e-13
        want = _reference_functionals(mu, np.maximum(h[4], 0.0), psi_quad_spliced, mixture)
        assert one == Functionals(**{**vars(want), "min_h": -1e-13})


def test_workspace_below_a_allocates_no_block(psi_quad_spliced):
    """functionals on a full workspace writes every block-sized result into
    the workspace: with every entry below psi.a, psi's splice gathers
    nothing, and what is left to allocate is row-sized."""
    import tracemalloc

    mu = tv.build_measure(tv.PotentialSpec.gaussian(), 1001)
    h = 1.0 + 0.3 * np.tanh(mu.grid + np.linspace(-1.0, 1.0, 32)[:, None])
    h /= (h * mu.quadrature).sum(axis=1, keepdims=True)
    assert h.max() < psi_quad_spliced.a and h.min() > 0.5
    ws = BlockWorkspace(mu, h)
    for mixture in (False, True):
        functionals(mu, ws, psi_quad_spliced, mixture=mixture)   # warms psi and numpy
        tracemalloc.start()
        try:
            functionals(mu, ws, psi_quad_spliced, mixture=mixture)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < h.nbytes // 8, (mixture, peak)


class TestGradientStencil:
    """The dissipation's h' is np.gradient(h, mu.dx, axis=-1) bit for bit, on
    the generator's one spacing, whether or not linspace made the grid exactly
    uniform (on a grid array numpy would take its non-uniform stencil)."""

    MEASURES = {
        "power4-1001": lambda: tv.build_measure(tv.PotentialSpec.power(4.0), 1001),
        "power4-801": lambda: tv.build_measure(tv.PotentialSpec.power(4.0), 801),
        "gaussian-1001": lambda: tv.build_measure(tv.PotentialSpec.gaussian(), 1001),
        "gaussian-4001": lambda: tv.build_measure(tv.PotentialSpec.gaussian(), 4001),
    }
    UNIFORM = {"power4-1001"}

    @pytest.mark.parametrize("rows", [1, 16])
    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_equals_np_gradient(self, name, rows):
        mu = self.MEASURES[name]()
        spacing = np.diff(mu.grid)
        # linspace makes the grid exactly uniform only now and then
        assert bool((spacing == spacing[0]).all()) == (name in self.UNIFORM)
        f = np.exp(np.random.default_rng(89).normal(size=(rows, len(mu.grid))))
        got = _gradient(f, mu.dx, np.empty_like(f))
        assert got.tobytes() == np.gradient(f, mu.dx, axis=-1).tobytes()
        for k in range(rows):
            assert got[k].tobytes() == np.gradient(f[k], mu.dx).tobytes()

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_dissipation_takes_h_prime_on_dx(self, name, psi_entropy_spliced):
        mu = self.MEASURES[name]()
        rng = np.random.default_rng(97)
        block = np.array([random_density(mu, rng) for _ in range(4)])
        got = functionals(mu, block, psi_entropy_spliced).dissipation
        for k, h in enumerate(block):
            want = _reference_functionals(mu, h, psi_entropy_spliced).dissipation
            assert got[k] == functionals(mu, h, psi_entropy_spliced).dissipation == want, k


class TestPinskerCheck:
    def test_equilibrium_holds(self, gaussian_measure, psi_centered):
        res = tv.pinsker_check(gaussian_measure, np.ones(4001), psi_centered,
                               psi_centered.c_pinsker)
        assert res.holds and res.tv == 0.0

    def test_sqrt2_variance_bound(self, gaussian_measure, psi_centered):
        # tv <= sqrt(2) sqrt(Var); Cauchy-Schwarz alone gives tv <= sqrt(Var)
        rng = np.random.default_rng(17)
        for _ in range(10):
            h = random_density(gaussian_measure, rng, smooth=False)
            res = tv.pinsker_check(gaussian_measure, h, psi_centered, math.sqrt(2.0))
            assert res.holds
            assert res.tv <= math.sqrt(tv.integrate(
                gaussian_measure, (h - 1.0) ** 2)) + 1e-12


class TestInitialShapes:
    def test_eigen_perturbation_mass(self, gaussian_measure):
        h = eigen_perturbation(gaussian_measure, 0.2)
        assert tv.integrate(gaussian_measure, h) == pytest.approx(1.0, abs=1e-12)
        assert h.min() >= 0.0

    def test_tail_ratio_clipped(self, gaussian_measure):
        h, clipped = tail_ratio_density(gaussian_measure, 1.0, cap=50.0)
        assert h.max() <= 50.0 / (1.0 - clipped) + 1e-9
        assert clipped >= 0.0
        assert tv.integrate(gaussian_measure, h) == pytest.approx(1.0, abs=1e-12)

    def test_step_density_mass(self, gaussian_measure):
        h = step_density(gaussian_measure)
        assert tv.integrate(gaussian_measure, h) == pytest.approx(1.0, abs=1e-12)
