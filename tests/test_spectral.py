import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kcirculant.extremes import spectral_radius
from kcirculant.numtheory import decompose, eigen_partition
from kcirculant.spectral import (
    as_input_sequence,
    block_products,
    build_matrix,
    dense_spectrum_oracle,
    det_probe_oracle,
    dft,
    dft_naive,
    export_spectrum_csv,
    formula_radius,
    formula_spectrum,
    spectra_match,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
EPS = np.finfo(float).eps


@st.composite
def k_n_pairs(draw, n_max=256):
    """Any 1 <= k < n <= n_max, so gcd(k, n) > 1 is drawn often."""
    n = draw(st.integers(2, n_max))
    return draw(st.integers(1, n - 1)), n


class TestBuildMatrix:
    def test_classic_circulant(self):
        a = np.array([1.0, 2.0, 3.0])
        A = build_matrix(a, 1, 3)
        expected = np.array([[1, 2, 3], [3, 1, 2], [2, 3, 1]], dtype=float)
        assert np.array_equal(A, expected)

    def test_delta_gives_permutation(self):
        n, k = 7, 3
        a = np.zeros(n)
        a[0] = 1.0
        A = build_matrix(a, k, n)
        assert np.array_equal(A.sum(axis=1), np.ones(n))
        for j in range(n):
            assert A[j, j * k % n] == 1.0

    def test_k2_n4_rows(self):
        a = np.array([10.0, 20.0, 30.0, 40.0])
        A = build_matrix(a, 2, 4)
        assert np.array_equal(A[0], a)
        assert np.array_equal(A[1], [30, 40, 10, 20])
        assert np.array_equal(A[2], a)
        assert np.array_equal(A[3], [30, 40, 10, 20])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_matrix([1.0, 2.0, 3.0], 1, 4)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            as_input_sequence([1.0])
        with pytest.raises(ValueError):
            as_input_sequence([1.0, np.inf])


class TestDft:
    def test_delta(self):
        a = np.zeros(8)
        a[0] = 1.0
        assert np.allclose(dft(a), np.ones(8))

    def test_constant(self):
        lam = dft(np.full(9, 2.5))
        assert lam[0] == pytest.approx(22.5)
        assert np.all(np.abs(lam[1:]) < 1e-12)

    def test_conjugate_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for n in (6, 7, 12, 13):
            lam = dft(rng.standard_normal(n))
            assert lam[0].imag == 0.0
            for t in range(1, n):
                assert lam[t] == np.conj(lam[n - t])  # exact by construction

    @pytest.mark.parametrize("n", [7, 16, 101, 1000])
    def test_matches_naive(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal(n)
        assert np.allclose(dft(a), dft_naive(a), rtol=1e-9, atol=1e-9 * n)

    def test_matches_naive_large_sampled(self):
        n = 100_000
        rng = np.random.default_rng(3)
        a = rng.standard_normal(n)
        lam = dft(a)
        ts = rng.integers(0, n, size=8)
        naive = dft_naive(a, ts)
        scale = np.abs(naive).max()
        assert np.all(np.abs(lam[ts] - naive) < 1e-9 * max(scale, n))

    def test_parseval(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(257)
        lam = dft(a)
        assert np.sum(np.abs(lam) ** 2) == pytest.approx(257 * np.sum(a**2), rel=1e-12)


class TestBlockProducts:
    def test_block_zero_is_total_sum(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(12)
        params = decompose(12, 5)
        part = eigen_partition(params)
        prods = block_products(dft(a), params)
        assert prods[0] == pytest.approx(a.sum())

    def test_half_block_is_alternating_sum(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(10)
        params = decompose(10, 3)
        part = eigen_partition(params)
        prods = block_products(dft(a), params)
        j = part.blocks.index((5,))
        alternating = np.sum(a * (-1.0) ** np.arange(10))
        assert prods[j].imag == 0.0
        assert prods[j].real == pytest.approx(alternating)

    def test_negative_sign_carriers(self):
        # lambda_0 < 0 and lambda_{n/2} < 0 flip the sign of their singleton
        # block products; the roots stay exactly real
        a = np.array([-3.0, 1.0, -2.0, 0.5, -1.0, 0.25, -0.5, 0.1, -0.25, 0.05])
        n, k = 10, 3
        spectrum = formula_spectrum(a, k, n)
        lam = dft(a)
        assert lam[0].real < 0 and lam[5].real < 0
        j0 = spectrum.partition.blocks.index((0,))
        j5 = spectrum.partition.blocks.index((5,))
        assert spectrum.block_products[j0] == lam[0].real
        assert spectrum.block_products[j5] == lam[5].real
        eig0 = spectrum.eigenvalues[spectrum.block_index == j0][0]
        eig5 = spectrum.eigenvalues[spectrum.block_index == j5][0]
        assert eig0.imag == pytest.approx(0.0, abs=1e-15 * abs(eig0))
        assert eig0.real == pytest.approx(lam[0].real, rel=1e-12)
        assert eig5.real == pytest.approx(lam[5].real, rel=1e-12)

    def test_self_conjugate_four_blocks_nonnegative(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(101)
        params = decompose(101, 10)
        part = eigen_partition(params)
        prods = block_products(dft(a), params)
        for j, blk in enumerate(part.blocks):
            if len(blk) == 4:
                assert prods[j].imag == 0.0
                assert prods[j].real >= 0.0

    def test_matches_direct_product_small(self):
        rng = np.random.default_rng(5)
        for n, k in [(7, 2), (10, 3), (12, 5), (6, 2)]:
            a = rng.standard_normal(n)
            params = decompose(n, k)
            part = eigen_partition(params)
            lam = dft(a)
            prods = block_products(lam, params)
            y = n // params.n_prime
            for j, blk in enumerate(part.blocks):
                direct = np.prod(lam[np.array(blk) * y])
                assert abs(prods[j] - direct) <= 1e-10 * max(1.0, abs(direct))


class TestFormulaSpectrum:
    def test_k1_equals_dft(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(11)
        spectrum = formula_spectrum(a, 1, 11)
        dist, ok = spectra_match(spectrum.eigenvalues, dft(a), 1e-10)
        assert ok, dist

    def test_delta_gives_roots_of_unity(self):
        n, k = 7, 2
        a = np.zeros(n)
        a[0] = 1.0
        spectrum = formula_spectrum(a, k, n)
        assert np.allclose(np.abs(spectrum.eigenvalues), 1.0)
        assert np.allclose(spectrum.block_products, 1.0)
        # {1} union two sets of cube roots of unity
        cube = np.exp(2j * np.pi * np.arange(3) / 3)
        expected = np.concatenate([[1.0], cube, cube])
        dist, ok = spectra_match(spectrum.eigenvalues, expected, 1e-12)
        assert ok, dist

    def test_zero_multiplicity_k2_n6(self):
        rng = np.random.default_rng(7)
        spectrum = formula_spectrum(rng.standard_normal(6), 2, 6)
        assert spectrum.zero_multiplicity == 3
        assert np.all(spectrum.eigenvalues[:3] == 0)
        assert np.all(spectrum.block_index[:3] == -1)

    def test_trace_identity(self):
        rng = np.random.default_rng(8)
        for n, k in [(9, 2), (16, 6), (25, 7), (40, 11)]:
            a = rng.standard_normal(n)
            spectrum = formula_spectrum(a, k, n)
            trace = np.sum(a[(np.arange(n) * (1 - k)) % n])
            assert abs(spectrum.eigenvalues.sum() - trace) <= 1e-9 * n * np.abs(a).max()

    def test_determinant_identity_when_coprime(self):
        rng = np.random.default_rng(9)
        for n, k in [(7, 3), (11, 2), (15, 4)]:
            a = rng.standard_normal(n)
            spectrum = formula_spectrum(a, k, n)
            ell = spectrum.partition.block_count
            det_formula = (-1.0) ** (n + ell) * np.prod(spectrum.block_products)
            det_lu = np.linalg.det(build_matrix(a, k, n))
            assert det_lu == pytest.approx(det_formula.real, rel=1e-8)

    def test_roots_are_roots_of_products(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal(10)
        spectrum = formula_spectrum(a, 3, 10)
        for j, blk in enumerate(spectrum.partition.blocks):
            roots = spectrum.eigenvalues[spectrum.block_index == j]
            assert roots.size == len(blk)
            assert np.allclose(roots ** len(blk), spectrum.block_products[j], rtol=1e-9)

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 8, 12, 16, 27, 33):
            for k in range(1, n):
                a = rng.standard_normal(n)
                spectrum = formula_spectrum(a, k, n)
                dense = dense_spectrum_oracle(build_matrix(a, k, n))
                nz = spectrum.eigenvalues[spectrum.zero_multiplicity:]
                if spectrum.zero_multiplicity == 0:
                    dist, ok = spectra_match(nz, dense, 1e-7 * n)
                    assert ok, (n, k, dist)
                else:
                    from scipy.optimize import linear_sum_assignment
                    cost = np.abs(nz[:, None] - dense[None, :])
                    rows, cols = linear_sum_assignment(cost)
                    assert cost[rows, cols].max() <= 1e-7 * n, (n, k)

    def test_two_by_two_closed_form(self):
        a = np.array([3.0, 0.5])
        spectrum = formula_spectrum(a, 1, 2)
        dist, ok = spectra_match(spectrum.eigenvalues, [3.5, 2.5], 1e-12)
        assert ok, dist


@st.composite
def input_stacks(draw):
    """(k, n, rows): 1-9 random input rows, the first sometimes with lambda_0 = 0."""
    k, n = draw(k_n_pairs(n_max=128))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((draw(st.integers(1, 9)), n))
    if draw(st.booleans()):
        rows[0] = 0.0
        rows[0, :2] = 1.0, -1.0
    return k, n, rows


# (2, 122): 61 structural zeros and one orbit block of size 60;
# (3, 128): blocks of size 32 and no structural zeros
STACK_EXAMPLES = [(2, 122, np.random.default_rng(1).standard_normal((8, 122))),
                  (3, 128, np.random.default_rng(2).standard_normal((3, 128)))]


class TestStackedInputs:
    @PROPERTY
    @given(case=input_stacks())
    @example(case=STACK_EXAMPLES[0])
    @example(case=STACK_EXAMPLES[1])
    def test_formula_rows_equal_single_calls(self, case):
        k, n, rows = case
        stacked = formula_spectrum(rows, k, n)
        for i, row in enumerate(rows):
            single = formula_spectrum(row, k, n)
            for name in ("eigenvalues", "block_products", "dft"):
                assert np.array_equal(getattr(stacked, name)[i], getattr(single, name)), name
        assert stacked.zero_multiplicity == single.zero_multiplicity
        assert np.array_equal(stacked.block_index, single.block_index)
        assert np.array_equal(stacked.root_index, single.root_index)

    @PROPERTY
    @given(case=input_stacks())
    @example(case=STACK_EXAMPLES[0])
    @example(case=STACK_EXAMPLES[1])
    def test_dense_oracle_rows_equal_single_calls(self, case):
        k, n, rows = case
        matrices = build_matrix(rows, k, n)
        assert matrices.shape == (len(rows), n, n)
        stacked = dense_spectrum_oracle(matrices)
        for i, row in enumerate(rows):
            single = build_matrix(row, k, n)
            assert np.array_equal(matrices[i], single)
            assert np.array_equal(stacked[i], dense_spectrum_oracle(single))

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_formula_rejects_non_finite_row(self, row):
        rows = np.ones((3, 6))
        rows[row, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            formula_spectrum(rows, 2, 6)

    @pytest.mark.parametrize("shape", [(5,), (2, 5), (2, 7)])
    def test_formula_rejects_wrong_length(self, shape):
        with pytest.raises(ValueError, match="does not match n = 6"):
            formula_spectrum(np.ones(shape), 2, 6)

    def test_formula_rejects_three_dimensions(self):
        with pytest.raises(ValueError, match="1-D or 2-D, got 3-D"):
            formula_spectrum(np.ones((2, 2, 6)), 2, 6)

    def test_dense_oracle_rejects_non_square_stack(self):
        with pytest.raises(ValueError, match="square"):
            dense_spectrum_oracle(np.ones((2, 3, 4)))


class TestFormulaRadius:
    @PROPERTY
    @given(pair=k_n_pairs(), seed=st.integers(0, 2**32 - 1))
    def test_matches_spectrum_radius(self, pair, seed):
        k, n = pair
        a = np.random.default_rng(seed).standard_normal(n)
        full = spectral_radius(formula_spectrum(a, k, n))
        assert abs(formula_radius(a, k, n) - full) <= 4 * EPS * full

    @PROPERTY
    @given(k=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
    def test_exact_on_k_squared_plus_one(self, k, seed):
        n = k * k + 1
        a = np.random.default_rng(seed).standard_normal(n)
        assert formula_radius(a, k, n) == spectral_radius(formula_spectrum(a, k, n))

    @PROPERTY
    @given(pair=k_n_pairs())
    def test_zero_dft_values(self, pair):
        k, n = pair
        difference = np.zeros(n)
        difference[:2] = 1.0, -1.0  # lambda_0 is exactly 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # all ones: lambda_0 = n, every other DFT value is (nearly) 0
            assert formula_radius(np.ones(n), k, n) == pytest.approx(n, rel=4 * EPS)
            assert formula_radius(np.zeros(n), k, n) == 0.0
            full = spectral_radius(formula_spectrum(difference, k, n))
            assert formula_radius(difference, k, n) == pytest.approx(full, rel=4 * EPS)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            formula_radius(np.ones(5), 2, 6)


class TestDenseOracle:
    def test_identity_matrix(self):
        assert np.allclose(sorted(dense_spectrum_oracle(np.eye(5)).real), 1.0)

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            dense_spectrum_oracle(np.eye(129))

    def test_permutation_k2_n7(self):
        a = np.zeros(7)
        a[0] = 1.0
        dense = dense_spectrum_oracle(build_matrix(a, 2, 7))
        cube = np.exp(2j * np.pi * np.arange(3) / 3)
        expected = np.concatenate([[1.0], cube, cube])
        dist, ok = spectra_match(dense, expected, 1e-8)
        assert ok, dist


class TestDetProbe:
    def test_small_case(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal(4)
        probes = det_probe_oracle(a, 1, 4, [2 + 1j])
        assert probes[0].rel_diff < 1e-9

    def test_zero_input(self):
        a = np.zeros(5)
        a = a + 0.0  # all-zero input: det(lam I - A) = lam^n
        probes = det_probe_oracle(a, 2, 5, [1.5 + 0.5j, -2.0 + 1.0j])
        for p in probes:
            assert p.rel_diff < 1e-10
            assert p.det_formula == pytest.approx(p.point**5)

    def test_twenty_probes_k2_n7(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal(7)
        angles = np.linspace(0, 2 * np.pi, 20, endpoint=False)
        pts = 2.5 * np.sqrt(7) * np.exp(1j * angles)
        probes = det_probe_oracle(a, 2, 7, pts)
        assert max(p.rel_diff for p in probes) < 1e-8

    def test_gcd_case_includes_zero_powers(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal(12)
        probes = det_probe_oracle(a, 6, 12, [2.0 + 2.0j])
        assert probes[0].rel_diff < 1e-8


class TestSpectraMatch:
    def test_identical(self):
        vals = np.array([1 + 1j, 2 - 1j, 0.5j])
        assert spectra_match(vals, vals, 1e-12) == (0.0, True)

    def test_small_perturbation(self):
        rng = np.random.default_rng(15)
        vals = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        jig = vals + 1e-10 * (1 + 1j)
        dist, ok = spectra_match(vals, rng.permutation(jig), 1e-8)
        assert ok and dist < 1e-9

    def test_detects_mismatch(self):
        dist, ok = spectra_match([1.0, 2.0], [1.0, 3.0], 1e-3)
        assert not ok and dist == pytest.approx(1.0)

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError):
            spectra_match([1.0], [1.0, 2.0], 1.0)

    def test_formula_vs_dense_k5_n12(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal(12)
        spectrum = formula_spectrum(a, 5, 12)
        dense = dense_spectrum_oracle(build_matrix(a, 5, 12))
        dist, ok = spectra_match(spectrum.eigenvalues, dense, 1e-7)
        assert ok, dist

    def test_conjugate_cloud_needs_assignment_fallback(self):
        # near-ties in the real part make the lexicographic greedy pairing
        # fail; the assignment fallback must recover it
        base = np.array([1.0 + 1e-13 + 1.0j, 1.0 - 1.0j, 1.0 + 1e-13 - 1.0j, 1.0 + 1.0j])
        dist, ok = spectra_match(base[:2][::-1], base[2:], 1e-8)
        assert ok, dist


class TestExport:
    def test_csv_is_deterministic_and_tagged(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal(6)
        spectrum = formula_spectrum(a, 2, 6)
        buf1, buf2 = io.StringIO(), io.StringIO()
        export_spectrum_csv(spectrum, buf1, scale=1 / math.sqrt(6))
        export_spectrum_csv(spectrum, buf2, scale=1 / math.sqrt(6))
        assert buf1.getvalue() == buf2.getvalue()
        lines = buf1.getvalue().strip().split("\n")
        assert lines[0] == "re,im,block_index,root_index"
        assert len(lines) == 7
        assert sum(ln.split(",")[2] == "-1" for ln in lines[1:]) == 3
