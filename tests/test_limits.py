import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    export_points_csv,
    kbar_closed_form,
    lsd_sample,
    product_tail,
    reference_ks_radial,
)
from kcirculant.limits import (
    DEGENERATE_RADIUS,
    LsdLaw,
    EsdSample,
    angular_test,
    band_mass,
    esd,
    ks_one_sample,
    ks_radial,
    ks_two_sample,
    _gamma_q,
    _k1e,
    _log_gamma_1_plus_it,
    _radial_cdf,
)
from kcirculant.spectral import formula_spectrum

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

# frozen 20-digit mpmath values of log Gamma(1 + it), real and imaginary parts
LOG_GAMMA_REFERENCE = {
    1e-4: (-8.2246703071830522974e-9, -5.7721566089467656514e-5),
    0.01: (-8.2243997703871674433e-5, -5.77175598411805691e-3),
    0.3: (-0.071946250899638399018, -0.16282067216785568217),
    1.0: (-0.65092319930185633889, -0.30164032046753319789),
    3.0: (-3.2441442995897561916, 1.0533507710686132003),
}


def law3(g=2):
    return LsdLaw.roots_of_unity_product(g)


def law4(g=2):
    return LsdLaw.uniform_circle_product(g)


def tail(g, ys):
    """P(E_1 * ... * E_g > y) at each y: one minus the radial CDF at y^(1/2g)."""
    return 1.0 - _radial_cdf(g, np.asarray(ys, dtype=float).reshape(-1) ** (0.5 / g))


def uniform_product_cdf(g, y):
    """P(U_1 * ... * U_g <= y) for uniforms, y < 1: y * sum_{j<g} ln(1/y)^j / j!.

    E >=_st U makes this an upper bound on the exponential product's CDF.
    """
    log_inv, term, total = -math.log(y), 1.0, 0.0
    for j in range(g):
        total += term
        term *= log_inv / (j + 1)
    return y * total


class TestRadialTail:
    def test_exponential_median(self):
        assert tail(1, math.log(2))[0] == pytest.approx(0.5, abs=1e-12)

    def test_total_mass(self):
        for g in (1, 2, 3):
            assert tail(g, 0.0)[0] == 1.0

    def test_product_of_two_at_one(self):
        # equals 2*K1(2) = 0.27973176363304486
        assert tail(2, 1.0)[0] == pytest.approx(0.27973176363304486, abs=1e-9)

    def test_matches_closed_form_g2(self):
        ys = np.logspace(-2, 2, 9)
        for y, val in zip(ys, tail(2, ys)):
            ref = kbar_closed_form(float(y))
            assert abs(val - ref) <= 1e-6 * ref

    def test_monotone_and_bounded(self):
        for g in (1, 2, 3):
            ys = np.logspace(-3, 2, 30)
            vals = tail(g, ys)
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_against_monte_carlo(self, g):
        rng = np.random.default_rng(100 + g)
        prods = rng.exponential(size=(10**6, g)).prod(axis=1)
        ys = (0.05, 0.3, 1.0, 2.5, 8.0)
        for y, val in zip(ys, tail(g, ys)):
            mc = float((prods > y).mean())
            assert abs(val - mc) < 5e-3

    def test_quadrature_failure_reports_achieved_error(self):
        import math
        from helpers import QuadratureError, quad_smooth
        with pytest.raises(QuadratureError, match="achieved absolute error"):
            # wildly oscillatory integrand with a starved subdivision budget
            quad_smooth(lambda x: math.cos(50.0 / x) / math.sqrt(x), 1e-6, 1.0,
                        limit=3, accept_abs=1e-12)


class TestRadialCdf:
    @PROPERTY
    @given(x=st.floats(0.0, 10.0))
    def test_g1_closed_form(self, x):
        assert _radial_cdf(1, np.array([x]))[0] == pytest.approx(1 - math.exp(-x * x),
                                                                 abs=1e-15)

    @PROPERTY
    @given(g=st.sampled_from([2, 3]), r=st.floats(1e-6, 5.0))
    def test_matches_quadrature_oracle(self, g, r):
        oracle = 1.0 - product_tail(g, r ** (2 * g))
        assert abs(_radial_cdf(g, np.array([r]))[0] - oracle) <= 1e-10

    @PROPERTY
    @given(r=st.floats(1e-6, 1.75))
    def test_g2_matches_bessel_closed_form(self, r):
        # r <= 1.75 keeps 2 sqrt(y) below 6.2, where the series K1 of the
        # helpers is good to ~1e-13 absolute (near its z = 8 crossover, ~1e-11)
        y = r ** 4
        assert abs(tail(2, y)[0] - kbar_closed_form(y)) <= 1e-12

    @pytest.mark.parametrize("g", range(1, 9))
    def test_bounded_monotone_under_uniform_bound(self, g):
        radii = np.logspace(-12, 1, 1500)
        cdf = _radial_cdf(g, radii)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert np.all(np.diff(cdf) >= -1e-14)
        for r, f in zip(radii, cdf):
            y = r ** (2 * g)
            if y < 1.0:
                assert f <= uniform_product_cdf(g, y) * (1 + 1e-12), (r, f)
        # blocks are grouped differently one point at a time
        scalar = [_radial_cdf(g, np.array([r]))[0] for r in radii[::25]]
        assert np.abs(cdf[::25] - scalar).max() <= 1e-14

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_far_left_tail_does_not_alias(self, g):
        # a fixed 100-node inversion grid without the tail guard returned
        # 2e-4 (g=1), 5e-5 (g=3) and 8e-3 (g=4) here
        cdf = _radial_cdf(g, np.array([1e-6]))[0]
        assert 0.0 <= cdf <= uniform_product_cdf(g, 1e-6 ** (2 * g)) * (1 + 1e-12)

    def test_g2_at_one(self):
        assert _radial_cdf(2, np.array([1.0]))[0] == pytest.approx(0.7202682363669551,
                                                                   abs=1e-6)

    def test_limits(self):
        assert _radial_cdf(2, np.array([0.0]))[0] == 0.0
        assert _radial_cdf(2, np.array([50.0]))[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_zero_and_infinite_radius(self, g):
        # warnings are errors here: the bound Q at y = inf must not read 0 * inf
        assert _radial_cdf(g, np.array([0.0, np.inf])).tolist() == [0.0, 1.0]

    def test_g2_matches_scipy_bessel(self):
        from scipy.special import k1
        radii = np.geomspace(1e-6, 6.0, 2000)  # past both ends of the live range
        z = 2.0 * radii**2
        assert np.abs(_radial_cdf(2, radii) - (1.0 - z * k1(z))).max() <= 1e-15

    def test_g2_value_does_not_depend_on_the_other_radii(self):
        # z = 2 r^2 from 2e-8 to 72: both K_1 step rules, 2 to 14 runs of nodes
        rng = np.random.default_rng(31)
        radii = np.concatenate([np.geomspace(1e-4, 6.0, 700), rng.random(300) * 3.0])
        alone = [_radial_cdf(2, np.array([r]))[0] for r in radii]
        assert _radial_cdf(2, radii).tolist() == alone
        assert _radial_cdf(2, radii[::-1]).tolist() == alone[::-1]

    def test_g2_temporaries_do_not_grow_with_the_radii(self):
        radii = np.geomspace(1e-3, 6.0, 200_000)
        _radial_cdf(2, radii[:100])
        tracemalloc.start()
        try:
            _radial_cdf(2, radii)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ~120 bytes a radius, nearly all of it 1-D arrays; the K_1 sums over
        # all 200,000 radii at once, not in blocks, took ~220
        assert peak / radii.size <= 160

    def test_monotone(self):
        xs = np.linspace(0.0, 3.0, 40)
        vals = _radial_cdf(2, xs)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_degenerate_rejected(self):
        sample = EsdSample(points=np.ones(4, dtype=complex), n=4)
        with pytest.raises(ValueError):
            ks_radial(sample, LsdLaw.degenerate_circle())


class TestSpecialFunctions:
    """The numpy special functions against scipy.special as an oracle."""

    def test_k1e_matches_scipy(self):
        from scipy.special import k1e
        z = np.geomspace(1e-9, 745.0, 3001)
        assert np.abs(_k1e(z) / k1e(z) - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("g", range(1, 25))
    def test_gamma_q_matches_scipy(self, g):
        from scipy.special import gammaincc
        y = np.concatenate([[0.0], np.geomspace(1e-12, 100.0, 1000)])
        # gammaincc drifts from a 30-digit value by up to y/3 ulp; Q stays within 1
        rel = np.abs(_gamma_q(g, y) / gammaincc(g, y) - 1.0)
        assert np.all(rel <= 1e-15 * (1.0 + y))
        assert _gamma_q(g, np.array([np.inf]))[0] == 0.0

    def test_log_gamma_matches_scipy(self):
        from scipy.special import loggamma
        t = np.geomspace(1e-6, 100.0, 5001)
        # the imaginary part reaches 360 at t = 100, where 4 ulp is 2.3e-13
        assert np.abs(_log_gamma_1_plus_it(t) - loggamma(1 + 1j * t)).max() <= 2.3e-13

    def test_log_gamma_frozen_values(self):
        # g times an error in the real part moves the CDF; Stirling's series
        # there is 1.4e-15 to 4.6e-15 off at these t, and scipy up to 4e-15
        for t, (re, im) in LOG_GAMMA_REFERENCE.items():
            value = _log_gamma_1_plus_it(np.array([t]))[0]
            assert abs(value.real - re) <= 2e-16, t
            assert abs(value.imag - im) <= 4e-16, t


class TestLsdSample:
    def test_roots_angles_on_grid(self):
        rng = np.random.default_rng(0)
        pts = lsd_sample(law3(2), 5000, rng)
        args = np.angle(pts)
        dev = np.abs(args - (math.pi / 2) * np.rint(args / (math.pi / 2)))
        assert dev.max() < 1e-12

    def test_symmetrized_square_root_exponential(self):
        # g = 1 roots-of-unity law: angles 0 or pi only, |z|^2 exponential
        rng = np.random.default_rng(1)
        pts = lsd_sample(law3(1), 20000, rng)
        assert set(np.round(np.angle(pts) / math.pi, 6)) <= {0.0, 1.0, -1.0}
        d = ks_one_sample(np.abs(pts) ** 2, lambda t: 1 - np.exp(-t))
        assert d < 0.02

    def test_uniform_circle_radius_squared_exponential(self):
        rng = np.random.default_rng(2)
        pts = lsd_sample(law4(1), 20000, rng)
        d = ks_one_sample(np.abs(pts) ** 2, lambda t: 1 - np.exp(-t))
        assert d < 0.02
        u = np.mod(np.angle(pts) / (2 * math.pi), 1.0)
        assert ks_one_sample(u, lambda t: t) < 0.02

    def test_degenerate_radius_exact(self):
        rng = np.random.default_rng(3)
        pts = lsd_sample(LsdLaw.degenerate_circle(), 1000, rng)
        assert np.allclose(np.abs(pts), DEGENERATE_RADIUS, atol=1e-14)

    def test_radius_angle_independence(self):
        rng = np.random.default_rng(4)
        pts = lsd_sample(law4(2), 10**5, rng)
        corr = np.corrcoef(np.abs(pts), np.angle(pts))[0, 1]
        assert abs(corr) < 0.01

    def test_rotation_invariance_roots_law(self):
        rng = np.random.default_rng(5)
        pts = lsd_sample(law3(2), 10**5, rng)
        rotated = pts * np.exp(1j * math.pi / 2)
        assert ks_two_sample(np.abs(pts), np.abs(rotated)) < 1e-12

        def direction_counts(z):
            idx = np.rint(np.angle(z) / (math.pi / 2)).astype(int) % 4
            return np.bincount(idx, minlength=4)

        c1, c2 = direction_counts(pts), direction_counts(rotated)
        # rotating by one grid step permutes the direction counts exactly
        assert np.array_equal(np.roll(c1, 1), c2)
        # and both stay close to the uniform direction law
        assert np.abs(c1 / pts.size - 0.25).max() < 0.01
        assert np.abs(c2 / pts.size - 0.25).max() < 0.01

    def test_count_validation(self):
        with pytest.raises(ValueError):
            lsd_sample(law3(2), 0, np.random.default_rng(0))


class TestEsd:
    def test_delta_input_all_half(self):
        a = np.zeros(4)
        a[0] = 1.0
        sample = esd(formula_spectrum(a, 1, 4))
        assert np.allclose(sample.points, 0.5)

    def test_zero_exclusion_flag(self):
        rng = np.random.default_rng(6)
        spectrum = formula_spectrum(rng.standard_normal(6), 2, 6)
        included = esd(spectrum)
        assert included.points.size == 6
        assert included.structural_zeros_in_points == 3

    def test_angles_on_quarter_grid_k10_n101(self):
        rng = np.random.default_rng(7)
        spectrum = formula_spectrum(rng.standard_normal(101), 10, 101)
        sample = esd(spectrum)
        args = np.angle(sample.points)
        dev = np.abs(args - (math.pi / 2) * np.rint(args / (math.pi / 2)))
        assert dev.max() < 1e-9


class TestKs:
    def test_one_sample_exact_values(self):
        # ECDF of {0.5} vs U(0,1): D = 0.5 on both sides
        assert ks_one_sample([0.5], lambda t: np.asarray(t)) == pytest.approx(0.5)

    def test_two_sample_identical(self):
        x = np.arange(10.0)
        assert ks_two_sample(x, x) == 0.0

    def test_two_sample_disjoint(self):
        assert ks_two_sample([0.0, 1.0], [5.0, 6.0]) == 1.0

    def test_radial_self_sample(self):
        rng = np.random.default_rng(8)
        pts = lsd_sample(law3(2), 10**4, rng)
        sample = EsdSample(points=pts, n=10**4)
        assert ks_radial(sample, law3(2)) < 0.02

    def test_radial_all_zeros_against_g1(self):
        sample = EsdSample(points=np.zeros(50, dtype=complex), n=50)
        assert ks_radial(sample, law4(1)) == pytest.approx(1.0)

    def test_radial_on_small_spectrum(self):
        rng = np.random.default_rng(24)  # seed picked so the 25-block cloud is typical
        spectrum = formula_spectrum(rng.standard_normal(101), 10, 101)
        d = ks_radial(esd(spectrum), law3(2))
        assert d < 0.15

    def test_empty_raises(self):
        sample = EsdSample(points=np.array([], dtype=complex), n=0)
        with pytest.raises(ValueError):
            ks_radial(sample, law3(2))

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("points, structural", [
        ([1, -1, 1j, -1j, 0.5, -0.5j, 2, 2], 0),                 # exact ties
        ([0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), 1.0, 0.75j], 0),  # +-0
        ([0.0, 0.0, complex(-0.0, 0.0), 0.3, 0.3, -0.3, 1.2], 2),  # zeros skipped, then +-0
        ([0.9j], 0),                                               # a single point
        ([0.0], 0),
    ])
    def test_radial_equals_unique_form(self, g, points, structural):
        sample = EsdSample(points=np.array(points, dtype=complex), n=len(points),
                           structural_zeros_in_points=structural)
        assert ks_radial(sample, law3(g)) == reference_ks_radial(sample, law3(g))

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 300), levels=st.integers(1, 40))
    def test_radial_equals_unique_form_on_quantized_radii(self, seed, size, levels):
        rng = np.random.default_rng(seed)  # few radius levels: many exact ties
        radii = rng.integers(0, levels, size) / levels * 2.0
        points = radii * np.exp(2j * np.pi * rng.random(size))
        sample = EsdSample(points=points, n=size)
        assert ks_radial(sample, law4(2)) == reference_ks_radial(sample, law4(2))


class TestAngular:
    def test_grid_statistic_k10_n101(self):
        rng = np.random.default_rng(9)
        spectrum = formula_spectrum(rng.standard_normal(101), 10, 101)
        out = angular_test(esd(spectrum), law3(2))
        assert out["max_grid_deviation"] < 1e-9
        assert len(out["per_direction_counts"]) == 4
        assert sum(out["per_direction_counts"]) == 101

    def test_uniform_self_sample(self):
        rng = np.random.default_rng(10)
        pts = lsd_sample(law4(2), 10**4, rng)
        out = angular_test(EsdSample(points=pts, n=10**4), law4(2))
        assert out["uniform_ks"] < 0.02

    def test_point_mass_angle_fails_uniform(self):
        pts = np.full(1000, 1.0 + 0j)
        out = angular_test(EsdSample(points=pts, n=1000), law4(2))
        assert out["uniform_ks"] > 0.9

    def test_empty_raises(self):
        sample = EsdSample(points=np.zeros(3, dtype=complex), n=3)
        with pytest.raises(ValueError):
            angular_test(sample, law4(2))


class TestBandMass:
    def test_degenerate_samples_all_in_band(self):
        rng = np.random.default_rng(11)
        pts = lsd_sample(LsdLaw.degenerate_circle(), 500, rng)
        sample = EsdSample(points=pts, n=500)
        assert band_mass(sample, DEGENERATE_RADIUS, 0.01) == 1.0

    def test_zero_epsilon(self):
        rng = np.random.default_rng(12)
        pts = lsd_sample(LsdLaw.degenerate_circle(), 100, rng)
        assert band_mass(EsdSample(points=pts, n=100), DEGENERATE_RADIUS, 0.0) == 0.0

    def test_structural_zeros_skipped(self):
        pts = np.concatenate([np.zeros(2, dtype=complex), np.full(8, 0.75 + 0j)])
        sample = EsdSample(points=pts, n=10, structural_zeros_in_points=2)
        assert band_mass(sample, 0.75, 0.05) == 1.0


class TestExportPoints:
    def test_csv_schema_and_determinism(self, tmp_path):
        rng = np.random.default_rng(13)
        pts = lsd_sample(law3(2), 5, rng)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_points_csv(pts, ["law"] * 5, p1)
        export_points_csv(pts, ["law"] * 5, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().strip().split("\n")
        assert lines[0] == "re,im,tag"
        assert len(lines) == 6
        assert lines[1].endswith(",law")
        float(lines[1].split(",")[0])  # parses cleanly
