import math

import numpy as np
import pytest

from helpers import (
    bessel_k1,
    block_products,
    blocks_of,
    dft,
    kbar_closed_form,
    reference_iid_max_reference,
)
from kcirculant.extremes import (
    gumbel_cdf,
    iid_max_reference,
    kbar,
    kbar_asymptotic,
    normalization,
    standardize_radius,
)
from kcirculant.spectral import (
    build_matrix,
    dense_spectrum_oracle,
    formula_radius,
    formula_spectrum,
)

# frozen 30-digit mpmath references for the in-suite K1 oracle itself
K1_REFERENCE = {
    0.2: 4.7759725432204722,
    0.4: 2.1843544247326874,
    1.0: 0.60190723019723457,
    2.0: 0.13986588181652243,
    5.0: 0.0040446134454521642,
    8.0: 0.00015536921180500113,
    14.0: 2.8583436534402497e-7,
    20.0: 5.8830579695570382e-10,
}


class TestBesselOracle:
    def test_reference_values(self):
        for z, ref in K1_REFERENCE.items():
            assert bessel_k1(z) == pytest.approx(ref, rel=2e-8)


class TestGumbelCdf:
    def test_standard_at_zero(self):
        assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1), abs=1e-15)

    def test_limits(self):
        assert gumbel_cdf(40.0) == pytest.approx(1.0, abs=1e-12)
        assert gumbel_cdf(-5.0) < 1e-8


class TestNormalization:
    def test_scale_identity(self):
        for q in (2, 16, 625, 10**6):
            norm = normalization(q)
            assert norm.c_q * math.sqrt(8 * math.log(q)) == pytest.approx(1.0, abs=1e-12)

    def test_q16(self):
        assert normalization(16).c_q == pytest.approx(0.2123304501, abs=1e-9)

    def test_q625(self):
        # direct evaluation, cross-checked by 30-digit arithmetic
        norm = normalization(625)
        assert norm.c_q == pytest.approx(0.13934387932373588, abs=1e-12)
        assert norm.d_q == pytest.approx(1.9553268687513230, abs=1e-12)

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            normalization(1)

    def test_d_increasing_and_scaling(self):
        qs = [10**3, 10**4, 10**5, 10**6]
        ds = [normalization(q).d_q for q in qs]
        assert all(b > a for a, b in zip(ds, ds[1:]))
        ratios = [d / math.sqrt(math.log(q) / 2.0) for d, q in zip(ds, qs)]
        assert all(1.0 < r < 1.1 for r in ratios)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))  # drifts toward 1


class TestKbar:
    def test_at_zero(self):
        assert kbar(0.0) == 1.0

    def test_at_one(self):
        assert kbar(1.0) == pytest.approx(0.27973176363304486, abs=1e-10)

    def test_strictly_decreasing(self):
        xs = np.logspace(-2, 3, 25)
        vals = [kbar(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_closed_form(self):
        for x in np.logspace(-2, 2, 17):
            ref = kbar_closed_form(float(x))
            assert abs(kbar(float(x)) - ref) <= 1e-6 * ref

    def test_frozen_bessel_values(self):
        # kbar(x) = z K1(z) at z = 2 sqrt(x), against the frozen references
        # and the in-suite series, which shares no code with the library's K1
        for z, ref in K1_REFERENCE.items():
            x = z * z / 4.0
            assert kbar(x) == pytest.approx(z * ref, rel=1e-13)
            assert kbar(x) == pytest.approx(kbar_closed_form(x), rel=2e-8)

    def test_at_most_one_near_zero(self):
        # s K_1(s) -> 1 as s -> 0, and rounding put it up to 3 ulp above
        assert max(kbar(float(x)) for x in np.geomspace(5e-324, 1e-6, 400)) == 1.0

    def test_far_tail_is_exactly_zero(self):
        assert kbar(746.0**2 / 4.0) == 0.0
        assert kbar(math.inf) == 0.0

    def test_asymptotic_values(self):
        assert kbar_asymptotic(1.0) == pytest.approx(0.2398755439361229, abs=1e-12)
        with pytest.raises(ValueError):
            kbar_asymptotic(0.0)

    def test_asymptotic_monotone_beyond_one(self):
        xs = np.linspace(1.0, 500.0, 200)
        vals = [kbar_asymptotic(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_ratio_to_asymptotic(self):
        for x, tol in [(25.0, 0.05), (100.0, 0.03), (400.0, 0.01)]:
            ratio = kbar(x) / kbar_asymptotic(x)
            assert abs(ratio - 1.0) < tol
        # convergence monotone across the three checkpoints
        r25 = abs(kbar(25.0) / kbar_asymptotic(25.0) - 1)
        r100 = abs(kbar(100.0) / kbar_asymptotic(100.0) - 1)
        r400 = abs(kbar(400.0) / kbar_asymptotic(400.0) - 1)
        assert r25 > r100 > r400

    def test_ode_residual(self):
        # x * second_derivative - value vanishes; 5-point stencil
        for x in (1.0, 4.0, 10.0, 50.0):
            h = 0.08 * math.sqrt(x)
            second = (-kbar(x + 2 * h) + 16 * kbar(x + h) - 30 * kbar(x)
                      + 16 * kbar(x - h) - kbar(x - 2 * h)) / (12 * h * h)
            residual = abs(x * second - kbar(x)) / kbar(x)
            assert residual < 1e-4, (x, residual)


class TestSpectralRadius:
    """formula_radius: the largest block modulus, read from the half-spectrum."""

    def test_identity_spectrum(self):
        # the unit impulse has every DFT value exactly 1, so every block product is 1
        impulse = np.eye(1, 9)[0]
        for k in range(1, 9):
            assert formula_radius(impulse, k, 9) == 1.0

    def test_permutation_spectrum(self):
        a = np.zeros(7)
        a[0] = 1.0
        assert formula_radius(a, 2, 7) == pytest.approx(1.0)

    def test_zero_input(self):
        assert formula_radius(np.zeros(6), 5, 6) == 0.0

    def test_equals_max_block_root_modulus(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(10)
        spectrum = formula_spectrum(a, 3, 10)
        products = block_products(dft(a), spectrum.partition)
        by_products = max(
            abs(products[j]) ** (1.0 / len(blk))
            for j, blk in enumerate(blocks_of(spectrum.partition)))
        assert formula_radius(a, 3, 10) == pytest.approx(by_products, rel=1e-12)
        assert formula_radius(a, 3, 10) == pytest.approx(
            np.abs(spectrum.eigenvalues).max(), rel=4 * np.finfo(float).eps)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for n in range(2, 41, 3):
            for k in (1, 2, n - 1):
                if not 1 <= k < n:
                    continue
                a = rng.standard_normal(n)
                sp_formula = np.abs(formula_spectrum(a, k, n).eigenvalues).max()
                sp_dense = np.abs(dense_spectrum_oracle(build_matrix(a, k, n))).max()
                assert sp_formula == pytest.approx(sp_dense, abs=1e-7)


class TestStandardize:
    def test_fixed_points(self):
        norm = normalization(100)
        assert standardize_radius(norm.d_q, norm) == pytest.approx(0.0, abs=1e-12)
        assert standardize_radius(norm.d_q + norm.c_q, norm) == pytest.approx(1.0, abs=1e-12)


class TestIidMaxReference:
    def test_single_trial(self):
        out = iid_max_reference(10, 1, 42)
        assert out.shape == (1,)

    def test_deterministic_per_master_seed(self):
        assert np.array_equal(iid_max_reference(100, 5, 7), iid_max_reference(100, 5, 7))

    @pytest.mark.parametrize("q", [2, 3, 257, 2500, 4999])
    @pytest.mark.parametrize("master_seed", [0, 7, 20260811, 2**63 + 5])
    def test_same_streams_as_two_draws_per_trial(self, q, master_seed):
        got = iid_max_reference(q, 4, master_seed)
        assert np.array_equal(got.view(np.uint64),
                              reference_iid_max_reference(q, 4, master_seed).view(np.uint64))

    def test_median_near_gumbel_median(self):
        # Gumbel median is -ln(ln 2) = 0.36651292...; at q = 1e4 the exact
        # median of the standardized maximum law sits 0.0405 above it
        from scipy.optimize import brentq
        q = 10**4
        norm = normalization(q)
        half = 1.0 - 0.5 ** (1.0 / q)
        exact_median = standardize_radius(
            brentq(lambda x: kbar(x**4) - half, 1.5, 4.0, xtol=1e-12), norm)
        assert abs(exact_median - 0.36651292058166433) < 0.05
        # the sampler's median agrees with the exact one to sampling noise
        # (median se ~ 0.032 at 2000 trials)
        out = iid_max_reference(q, 2000, 12345)
        assert abs(np.median(out) - exact_median) < 0.1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            iid_max_reference(1, 10, 0)
        with pytest.raises(ValueError):
            iid_max_reference(10, 0, 0)
