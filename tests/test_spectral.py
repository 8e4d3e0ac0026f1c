import io
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (
    block_products,
    blocks_of,
    det_probe_oracle,
    dft,
    dft_naive,
    full_dft_polar,
    members_of,
    reference_formula_spectrum,
)
from kcirculant.limits import esd, grid_deviation
from kcirculant.montecarlo import DEFAULT_MASTER_SEED
from kcirculant.numtheory import decompose, eigen_partition, factorize, structure
from kcirculant.seeding import derive_trial_seed, input_law
from kcirculant.spectral import (
    SPLIT_FLOOR,
    TWO_PI,
    _half_spectrum,
    _least_sum_assignment,
    _log_block_products,
    as_input_sequence,
    build_matrix,
    dense_spectrum_oracle,
    export_spectrum_csv,
    formula_polar,
    formula_radius,
    formula_spectrum,
    spectra_match,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
EPS = np.finfo(float).eps


@st.composite
def tied_costs(draw):
    """A rows x columns cost matrix (rows <= columns <= 6) of small integers, so
    exact ties and columns contested by several rows' minima are common."""
    cols = draw(st.integers(1, 6))
    rows = draw(st.integers(0, cols))
    cells = draw(st.lists(st.integers(0, 3), min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=float).reshape(rows, cols)


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
        prods = block_products(dft(a), part)
        assert prods[0] == pytest.approx(a.sum())

    def test_half_block_is_alternating_sum(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(10)
        params = decompose(10, 3)
        part = eigen_partition(params)
        prods = block_products(dft(a), part)
        j = blocks_of(part).index((5,))
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
        j0 = blocks_of(spectrum.partition).index((0,))
        j5 = blocks_of(spectrum.partition).index((5,))
        prods = block_products(lam, spectrum.partition)
        assert prods[j0] == lam[0].real
        assert prods[j5] == lam[5].real
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
        prods = block_products(dft(a), part)
        for j, blk in enumerate(blocks_of(part)):
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
            prods = block_products(lam, part)
            y = n // params.n_prime
            for j, blk in enumerate(blocks_of(part)):
                direct = np.prod(lam[np.array(blk) * y])
                assert abs(prods[j] - direct) <= 1e-10 * max(1.0, abs(direct))


class TestFormulaSpectrum:
    def test_k1_equals_dft(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(11)
        spectrum = formula_spectrum(a, 1, 11)
        dist, ok, _ = spectra_match(spectrum.eigenvalues, dft(a), 1e-10)
        assert ok, dist

    def test_delta_gives_roots_of_unity(self):
        n, k = 7, 2
        a = np.zeros(n)
        a[0] = 1.0
        spectrum = formula_spectrum(a, k, n)
        assert np.allclose(np.abs(spectrum.eigenvalues), 1.0)
        assert np.allclose(block_products(dft(a), spectrum.partition), 1.0)
        # {1} union two sets of cube roots of unity
        cube = np.exp(2j * np.pi * np.arange(3) / 3)
        expected = np.concatenate([[1.0], cube, cube])
        dist, ok, _ = spectra_match(spectrum.eigenvalues, expected, 1e-12)
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
            ell = spectrum.partition.sizes.size
            prods = block_products(dft(a), spectrum.partition)
            det_formula = (-1.0) ** (n + ell) * np.prod(prods)
            det_lu = np.linalg.det(build_matrix(a, k, n))
            assert det_lu == pytest.approx(det_formula.real, rel=1e-8)

    def test_roots_are_roots_of_products(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal(10)
        spectrum = formula_spectrum(a, 3, 10)
        prods = block_products(dft(a), spectrum.partition)
        for j, blk in enumerate(blocks_of(spectrum.partition)):
            roots = spectrum.eigenvalues[spectrum.block_index == j]
            assert roots.size == len(blk)
            assert np.allclose(roots ** len(blk), prods[j], rtol=1e-9)

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 8, 12, 16, 27, 33):
            for k in range(1, n):
                a = rng.standard_normal(n)
                spectrum = formula_spectrum(a, k, n)
                dense = dense_spectrum_oracle(build_matrix(a, k, n))
                nz = spectrum.eigenvalues[spectrum.zero_multiplicity:]
                dist, ok, _ = spectra_match(nz, dense, 1e-7 * n)
                assert ok, (n, k, dist)

    def test_two_by_two_closed_form(self):
        a = np.array([3.0, 0.5])
        spectrum = formula_spectrum(a, 1, 2)
        dist, ok, _ = spectra_match(spectrum.eigenvalues, [3.5, 2.5], 1e-12)
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
            assert np.array_equal(stacked.eigenvalues[i], single.eigenvalues)
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


def _delta(rng, shape):
    a = np.zeros(shape)
    a[..., 0] = 1.0
    return a


INPUT_KINDS = {
    "gaussian": lambda rng, shape: rng.standard_normal(shape),
    "rademacher": lambda rng, shape: rng.integers(0, 2, shape) * 2.0 - 1.0,
    "ones": lambda rng, shape: np.ones(shape),
    "delta": _delta,
}


class TestAssemblyBitForBit:
    """The in-place assembly reproduces the first, concatenate-based one exactly:
    all-ones and delta inputs put exact zeros, and so signed zeros, in the roots.
    formula_polar's roots and formula_radius are checked against the same reference,
    which reads all n' DFT values and none of the partition's root layout."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(2, 512), k=st.integers(1, 1024), rows=st.sampled_from([0, 1, 3]),
           kind=st.sampled_from(sorted(INPUT_KINDS)), seed=st.integers(0, 2**32 - 1))
    @example(n=122, k=2, rows=3, kind="ones", seed=0)    # 61 zeros, one 60-block
    @example(n=128, k=3, rows=0, kind="delta", seed=0)   # blocks of size 32
    def test_matches_reference_assembly(self, n, k, rows, kind, seed):
        if k % n == 0:
            k += 1
        a = INPUT_KINDS[kind](np.random.default_rng(seed), (rows, n) if rows else (n,))
        spectrum = formula_spectrum(a, k, n)
        eigs, block_index, root_index, moduli, angles = reference_formula_spectrum(a, k, n)
        assert spectrum.eigenvalues.shape == eigs.shape
        assert np.array_equal(spectrum.eigenvalues.view(np.uint64), eigs.view(np.uint64))
        for got, want in ((spectrum.block_index, block_index),
                          (spectrum.root_index, root_index)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for got, want in zip(formula_polar(a, k, n), (moduli, angles)):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for row, row_moduli in zip(np.atleast_2d(a), np.atleast_2d(moduli)):
            assert formula_radius(row, k, n) == row_moduli.max()


class TestFormulaRadius:
    @PROPERTY
    @given(pair=k_n_pairs(), seed=st.integers(0, 2**32 - 1))
    def test_matches_spectrum_radius(self, pair, seed):
        k, n = pair
        a = np.random.default_rng(seed).standard_normal(n)
        full = np.abs(formula_spectrum(a, k, n).eigenvalues).max()
        assert abs(formula_radius(a, k, n) - full) <= 4 * EPS * full

    @PROPERTY
    @given(k=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
    def test_exact_on_k_squared_plus_one(self, k, seed):
        n = k * k + 1
        a = np.random.default_rng(seed).standard_normal(n)
        assert formula_radius(a, k, n) == np.abs(formula_spectrum(a, k, n).eigenvalues).max()

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
            full = np.abs(formula_spectrum(difference, k, n).eigenvalues).max()
            assert formula_radius(difference, k, n) == pytest.approx(full, rel=4 * EPS)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            formula_radius(np.ones(5), 2, 6)


class TestFormulaPolar:
    """formula_polar gives formula_spectrum's nonzero-structure roots as (moduli,
    arguments); through esd, the ESD the lsd kinds read."""

    @staticmethod
    def ulps_from_complex_esd(a, k, n):
        """Largest relative radius error and absolute argument error, in units of EPS."""
        spectrum = formula_spectrum(a, k, n)
        points = spectrum.eigenvalues[spectrum.zero_multiplicity:] / math.sqrt(n)
        radii, angles = esd(*formula_polar(a, k, n), n)
        assert radii.shape == angles.shape == points.shape
        modulus = np.abs(points)
        turns = angles - np.angle(points)  # arguments are not reduced to (-pi, pi]
        return (np.abs(radii - modulus) / modulus).max() / EPS, \
            np.abs(turns - TWO_PI * np.rint(turns / TWO_PI)).max() / EPS

    def test_matches_abs_and_angle_for_every_small_pair(self):
        worst = [self.ulps_from_complex_esd(np.random.default_rng(n).standard_normal(n), k, n)
                 for n in range(2, 200) for k in range(1, n)]
        assert np.all(np.max(worst, axis=0) <= 4.0)

    @pytest.mark.parametrize("k, n, law", [(100, 10001, "gaussian"), (100, 9999, "gaussian"),
                                           (2, 6561, "gaussian"), (11, 665, "exp")])
    def test_matches_abs_and_angle_on_lsd_configs(self, k, n, law):
        for trial in range(2):
            seed = derive_trial_seed(DEFAULT_MASTER_SEED, trial)
            a = input_law(law).sample(np.random.default_rng(seed), n)
            assert max(self.ulps_from_complex_esd(a, k, n)) <= 4.0

    @PROPERTY
    @given(pair=k_n_pairs(), kind=st.sampled_from(sorted(INPUT_KINDS)),
           seed=st.integers(0, 2**32 - 1))
    def test_one_exact_modulus_per_block(self, pair, kind, seed):
        k, n = pair
        a = INPUT_KINDS[kind](np.random.default_rng(seed), n)
        moduli, _ = formula_polar(a, k, n)
        partition = formula_spectrum(a, k, n).partition
        assert moduli.size == partition.n_prime
        assert np.array_equal(moduli, np.repeat(moduli[partition.starts], partition.sizes))
        assert formula_radius(a, k, n) == moduli.max()

    @PROPERTY
    @given(case=input_stacks())
    def test_rows_equal_single_calls(self, case):
        k, n, a = case
        moduli, angles = formula_polar(a, k, n)
        for row, m, t in zip(a, moduli, angles):
            single = formula_polar(row, k, n)
            assert np.array_equal(m, single[0]) and np.array_equal(t, single[1])


@st.composite
def theorem3_cases(draw):
    """(k, n, g) with k^g = -1 (mod n): n >= 3 divides k^g + 1, n <= 4096."""
    k, g = draw(st.integers(2, 60)), draw(st.integers(1, 4))
    divisors = [d for d in range(3, min(k**g + 1, 4096) + 1) if (k**g + 1) % d == 0]
    assume(divisors)
    return k, draw(st.sampled_from(divisors)), g


GATE_INPUTS = {
    **INPUT_KINDS,
    "negative_sum": lambda rng, n: rng.standard_normal(n) - 3.0,  # lambda_0 < 0
    "cauchy": lambda rng, n: rng.standard_cauchy(n),
}


class TestTheorem3AngularGate:
    """Under k^g = -1 (mod n) every orbit is self-conjugate and its size divides 2g. A
    block's product is real, and >= 0 unless the block is the singleton {0} or {n/2}, so
    every argument is a multiple of pi/g whatever the input: lsd's angular_grid_dev gate
    measures rounding alone."""

    @PROPERTY
    @given(case=theorem3_cases(), kind=st.sampled_from(sorted(GATE_INPUTS)),
           seed=st.integers(0, 2**32 - 1))
    @example(case=(100, 10001, 2), kind="negative_sum", seed=0)  # lsd-radial's theorem-3 run
    @example(case=(3, 4, 1), kind="rademacher", seed=1)  # signs on {0} and {n/2}
    def test_arguments_lie_on_the_grid(self, case, kind, seed):
        k, n, g = case
        a = GATE_INPUTS[kind](np.random.default_rng(seed), n)
        assert grid_deviation(formula_polar(a, k, n)[1], g) < 1e-12


class TestStructureCache:
    def test_distinct_pairs_retain_one_structure(self):
        # a partition of n' = 20011 with its root layout holds about 0.4 MB; one cached
        # per pair, four pairs retained four times what one did
        import tracemalloc

        n = 20011
        a = np.random.default_rng(0).standard_normal(n)
        structure.cache_clear()
        tracemalloc.start()
        try:
            formula_spectrum(a, 2, n)
            one = tracemalloc.get_traced_memory()[0]
            for k in (3, 4, 5):
                formula_spectrum(a, k, n)
            four = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert four < 1.25 * one


@st.composite
def shared_factor_stacks(draw):
    """(k, n, rows): gcd(k, n) > 1 and 1-3 Gaussian input rows."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    n = p * draw(st.integers(2, 256 // p))
    k = p * draw(st.integers(1, n // p - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return k, n, rng.standard_normal((draw(st.integers(1, 3)), n))


# |formula - full-DFT reference| / max|lambda_t| at gcd(k, n) > 1: at most 2.1e-15 over
# all 30,884 such pairs with n < 400 (one Gaussian input each)
TRANSFORM_BOUND = 64 * EPS


class TestPeriodizedTransform:
    """The formula reads lambda at the multiples of n/n' from the n'-point DFT of the input
    summed mod n'. Against the same products read off all n DFT values (helpers.dft), that
    moves last bits at gcd(k, n) > 1 and no bit at gcd(k, n) = 1."""

    @staticmethod
    def check_against_full_dft(k, n, a):
        moduli, angles = full_dft_polar(a, k, n)
        reference = moduli * np.exp(1j * angles)
        bound = TRANSFORM_BOUND * np.abs(dft(a)).max(-1, keepdims=True)
        spectrum = formula_spectrum(a, k, n)
        zeros = spectrum.zero_multiplicity
        assert zeros == n - spectrum.partition.n_prime
        assert np.all(spectrum.eigenvalues[..., :zeros] == 0)
        assert np.all(spectrum.eigenvalues[..., zeros:] != 0)  # exactly n - n' exact zeros
        assert np.all(np.abs(spectrum.eigenvalues[..., zeros:] - reference) <= bound)
        polar_mod, polar_arg = formula_polar(a, k, n)
        assert np.all(np.abs(polar_mod * np.exp(1j * polar_arg) - reference) <= bound)
        for row, row_bound, row_mod in zip(*map(np.atleast_2d, (a, bound, moduli))):
            assert abs(formula_radius(row, k, n) - row_mod.max()) <= row_bound[0]

    @PROPERTY
    @given(case=shared_factor_stacks())
    @example(case=STACK_EXAMPLES[0])
    def test_shared_factors_match_full_dft(self, case):
        self.check_against_full_dft(*case)

    def test_every_small_shared_factor_pair(self):
        for n in range(4, 128):
            for k in range(2, n):
                if math.gcd(k, n) > 1:
                    a = np.random.default_rng([n, k]).standard_normal(n)
                    self.check_against_full_dft(k, n, a)

    @PROPERTY
    @given(pair=k_n_pairs(), kind=st.sampled_from(sorted(INPUT_KINDS)),
           seed=st.integers(0, 2**32 - 1))
    def test_coprime_is_the_full_dft_bit_for_bit(self, pair, kind, seed):
        k, n = pair
        assume(math.gcd(k, n) == 1)
        a = INPUT_KINDS[kind](np.random.default_rng(seed), n)
        for got, want in zip(formula_polar(a, k, n), full_dft_polar(a, k, n)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


SPLIT_PRIMES = [q for q in range(SPLIT_FLOOR, 3002) if factorize(q) == [(q, 1)]]
SPLIT_INPUTS = {
    **INPUT_KINDS,
    # a_j = (-1)^(j+1): lambda at n'/2 is -n when n' is even
    "alternating": lambda rng, shape: -(-1.0) ** np.arange(shape[-1]) * np.ones(shape),
}


class TestPrimeFactorSplit:
    """_half_spectrum takes _split_rfft where n' = r*p for its largest prime factor
    p >= SPLIT_FLOOR and 1 < r < p, and np.fft.rfft(a).conj() itself at every other n'.
    The smallest split n' is 2 * SPLIT_FLOOR > 512, so no bit-for-bit property above reaches
    the split: this class checks it against the full DFT, the naive DFT and itself."""

    # n' = 1, 2, a prime, a prime power, p^2 <= n' (also at p = SPLIT_FLOOR), and p below
    # the floor twice
    @pytest.mark.parametrize("k, n, n_prime", [(6, 36, 1), (3, 6, 2), (2, 1000003, 1000003),
                                               (2, 6561, 6561), (3, 4901, 4901),
                                               (2, 85849, 85849), (2, 10001, 10001),
                                               (2, 9999, 9999)])
    def test_unsplit_n_prime_keeps_the_real_fft(self, k, n, n_prime):
        partition = structure(n, k)
        assert partition.n_prime == n_prime
        a = np.random.default_rng(n).standard_normal((2, n))
        folded = a.reshape(2, -1, n_prime).sum(-2) if n_prime < n else a
        want = np.fft.rfft(folded).conj()
        assert np.array_equal(_half_spectrum(a, partition).view(np.uint64), want.view(np.uint64))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(p=st.sampled_from(SPLIT_PRIMES), r=st.integers(2, 30),
           s=st.sampled_from([1, 2, 3, 5, 7]), k0=st.integers(1, 10**6),
           rows=st.sampled_from([0, 1, 2, 3]), kind=st.sampled_from(sorted(SPLIT_INPUTS)),
           seed=st.integers(0, 2**32 - 1))
    @example(p=SPLIT_FLOOR, r=2, s=1, k0=3, rows=0, kind="gaussian", seed=0)  # smallest split
    @example(p=SPLIT_FLOOR, r=SPLIT_FLOOR - 1, s=1, k0=5, rows=3, kind="alternating", seed=0)
    @example(p=421, r=22, s=1, k0=21, rows=1, kind="gaussian", seed=1)  # criterion 9's theorem 3
    @example(p=307, r=4, s=3, k0=7, rows=2, kind="ones", seed=0)
    @example(p=311, r=9, s=2, k0=1, rows=0, kind="delta", seed=0)
    @example(p=293, r=6, s=1, k0=5, rows=0, kind="gaussian", seed=0)  # (5, 1758)
    @example(p=307, r=10, s=1, k0=11, rows=2, kind="gaussian", seed=0)  # (11, 3070)
    def test_split_sizes(self, p, r, s, k0, rows, kind, seed):
        # n' = r*p: n = r*p*s and k = s*k0 for a prime s dividing neither r nor p, so
        # gcd(k, n) = s and n' < n, or n = r*p and k = k0 when s = 1
        assume(math.gcd(k0, r * p) == 1 and (s == 1 or r % s))
        m = r * p
        n = m * s
        k = s * k0 % n
        partition = structure(n, k)
        assert (partition.n_prime, partition.largest_prime) == (m, p)  # the route splits
        a = SPLIT_INPUTS[kind](np.random.default_rng(seed), (rows, n) if rows else (n,))

        # all three formula functions within TRANSFORM_BOUND * max|lambda| of the full DFT
        moduli, angles = full_dft_polar(a, k, n)
        reference = moduli * np.exp(1j * angles)
        bound = TRANSFORM_BOUND * np.abs(dft(a)).max(-1, keepdims=True)
        spectrum = formula_spectrum(a, k, n)
        roots = spectrum.eigenvalues[..., n - m:]
        assert np.all(np.abs(roots - reference) <= bound)
        polar_mod, polar_arg = formula_polar(a, k, n)
        assert np.all(np.abs(polar_mod * np.exp(1j * polar_arg) - reference) <= bound)
        for row, row_bound, row_mod in zip(*map(np.atleast_2d, (a, bound, moduli))):
            assert abs(formula_radius(row, k, n) - row_mod.max()) <= row_bound[0]

        # exactly n - n' exact zeros, where no lambda_t is zero
        assert spectrum.zero_multiplicity == n - m
        assert np.all(spectrum.eigenvalues[..., :n - m] == 0)
        if kind in ("gaussian", "delta"):
            assert np.all(roots != 0)

        # lambda_{n'-t} is read as the exact conjugate of lambda_t, and every
        # self-conjugate block's angle is exactly 0 or pi: pi at {n'/2} when lambda_{n'/2} < 0
        half = _half_spectrum(a, partition)
        if m % 2 == 0:  # lambda_{n'/2} is real, with the unsplit path's -0.0 imaginary part
            unsplit = np.fft.rfft(a.reshape(a.shape[:-1] + (-1, m)).sum(-2)).conj()
            assert np.array_equal(half.imag[..., m // 2].view(np.uint64),
                                  unsplit.imag[..., m // 2].view(np.uint64))
        lam = np.empty(half.shape[:-1] + (m,), complex)
        lam[..., members_of(partition)] = half.take(partition.fold, -1)
        lam.imag[..., members_of(partition)] *= partition.mirror
        pairs = np.flatnonzero(np.arange(m) * 2 % m)  # t other than 0 and n'/2
        assert np.array_equal(lam[..., m - pairs], lam[..., pairs].conj())
        theta = _log_block_products(half, partition)[1]
        sc = partition.self_conjugate
        assert np.all((theta.T[sc] == 0.0) | (theta.T[sc] == math.pi))
        if kind == "alternating" and m % 2 == 0:  # lambda_{n'/2} = -n
            j = np.flatnonzero(partition.fold[partition.starts] == m // 2)
            assert np.all(theta[..., j] == math.pi)

        # each stack row is bit-equal to its single call
        for i, row in enumerate(a if rows else ()):
            assert np.array_equal(formula_spectrum(row, k, n).eigenvalues.view(np.uint64),
                                  spectrum.eigenvalues[i].view(np.uint64))
            for got, want in zip(formula_polar(row, k, n), (polar_mod[i], polar_arg[i])):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

        # a few values against the naive DFT, which reads no FFT
        row = np.atleast_2d(a)[0]
        ts = np.array([0, 1, r, p, m // 2 - 1, m // 2, (seed % (m // 2)) + 1])
        naive = dft_naive(row, ts * (n // m))
        assert np.all(np.abs(np.atleast_2d(half)[0, ts] - naive)
                      <= TRANSFORM_BOUND * np.abs(row).sum())


class TestKReduction:
    @pytest.mark.parametrize("fn", [formula_spectrum, formula_radius, formula_polar])
    @pytest.mark.parametrize("k, message", [(-1, "k must be at least 1"),
                                            (0, "k must be at least 1"),
                                            (10, "k reduces to 0 mod n"),
                                            (20, "k reduces to 0 mod n")])
    def test_refused_with_decompose_message(self, fn, k, message):
        with pytest.raises(ValueError, match=message):
            fn(np.ones(10), k, 10)

    def test_k_above_n_is_reduced(self):
        a = np.random.default_rng(19).standard_normal(10)
        assert np.array_equal(formula_spectrum(a, 13, 10).eigenvalues,
                              formula_spectrum(a, 3, 10).eigenvalues)
        assert formula_radius(a, 13, 10) == formula_radius(a, 3, 10)


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
        dist, ok, _ = spectra_match(dense, expected, 1e-8)
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
        dist, ok, leftover = spectra_match(vals, vals, 1e-12)
        assert (dist, ok, leftover.size) == (0.0, True, 0)

    def test_small_perturbation(self):
        rng = np.random.default_rng(15)
        vals = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        jig = vals + 1e-10 * (1 + 1j)
        dist, ok, _ = spectra_match(vals, rng.permutation(jig), 1e-8)
        assert ok and dist < 1e-9

    def test_detects_mismatch(self):
        dist, ok, _ = spectra_match([1.0, 2.0], [1.0, 3.0], 1e-3)
        assert not ok and dist == pytest.approx(1.0)

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError):
            spectra_match([1.0, 2.0], [1.0], 1.0)

    def test_unpaired_values_are_returned(self):
        dist, ok, leftover = spectra_match([2.0, 1j], [0.01, 1j, 2.0 + 1e-9, -0.02], 1e-8)
        assert ok and dist == pytest.approx(1e-9)
        assert sorted(leftover.real) == [-0.02, 0.01]

    def test_formula_vs_dense_k5_n12(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal(12)
        spectrum = formula_spectrum(a, 5, 12)
        dense = dense_spectrum_oracle(build_matrix(a, 5, 12))
        dist, ok, _ = spectra_match(spectrum.eigenvalues, dense, 1e-7)
        assert ok, dist

    def test_conjugate_cloud_needs_assignment_fallback(self):
        # near-ties in the real part defeat a pairing by lexicographic sort;
        # the assignment must still pair each conjugate with its twin
        base = np.array([1.0 + 1e-13 + 1.0j, 1.0 - 1.0j, 1.0 + 1e-13 - 1.0j, 1.0 + 1.0j])
        dist, ok, _ = spectra_match(base[:2][::-1], base[2:], 1e-8)
        assert ok, dist

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            # a small pool with exact ties (repeated draws), near-ties (1e-13
            # apart) and a conjugate pair, so equal-cost pairings are common
            base = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            pool = np.concatenate([base, base[:2] + 1e-13, base[:1].conj()])
            n = int(rng.integers(1, 7))
            s1 = rng.choice(pool, int(rng.integers(0, n + 1)))
            s2 = rng.choice(pool, n) + rng.choice([0.0, 0.0, 1e-3j], n)
            dist, ok, leftover = spectra_match(s1, s2, 1e-2)
            pairings = []  # (summed distance, largest distance, s2 left unpaired)
            for perm in itertools.permutations(range(n), s1.size):
                d = np.abs(s1 - s2[list(perm)])
                pairings.append((d.sum(), d.max(initial=0.0),
                                 np.sort(np.delete(s2, list(perm)))))
            least_sum = min(p[0] for p in pairings)
            assert dist >= min(p[1] for p in pairings)
            assert ok == (dist <= 1e-2)
            # some least-sum pairing has exactly the returned distance and leftover
            assert any(abs(total - least_sum) <= 1e-12 and largest == dist
                       and np.array_equal(rest, np.sort(leftover))
                       for total, largest, rest in pairings), (s1, s2)

    @settings(PROPERTY, max_examples=300)
    @given(tied_costs())
    def test_least_sum_equals_brute_force_on_ties(self, cost):
        rows = np.arange(len(cost))
        cols, paired = _least_sum_assignment(cost.copy())
        assert len(set(cols.tolist())) == len(cost)
        assert np.array_equal(paired, cost[rows, cols])
        least = min(cost[rows, list(perm)].sum()
                    for perm in itertools.permutations(range(cost.shape[1]), len(cost)))
        assert paired.sum() == least

    def test_same_pairing_as_scipy_without_ties(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(19)
        contested = 0
        for _ in range(400):
            n_rows = int(rng.integers(1, 41))
            cost = rng.random((n_rows, int(rng.integers(n_rows, 42))))
            contested += np.unique(cost.argmin(axis=1)).size < n_rows
            cols, _ = _least_sum_assignment(cost.copy())
            assert np.array_equal(cols, linear_sum_assignment(cost)[1])
        assert contested > 300  # most draws need augmenting paths

    def test_contested_column_is_rerouted(self):
        # both rows' cheapest column is 0; the least sum gives it to row 1
        cols, paired = _least_sum_assignment(np.array([[1.0, 2.0], [1.0, 3.0]]))
        assert cols.tolist() == [1, 0] and paired.sum() == 3.0

    def test_tied_path_ends_at_the_first_free_column(self):
        # row 1 reaches free column 2 and row 0's column 0 at the same cost; ending
        # at column 2 keeps row 0's pair, as scipy's row-by-row solve does
        from scipy.optimize import linear_sum_assignment

        cost = np.array([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
        cols, _ = _least_sum_assignment(cost.copy())
        assert cols.tolist() == [0, 2] == linear_sum_assignment(cost)[1].tolist()

    @pytest.mark.parametrize("s1, s2", [
        ([np.nan], [1.0, 2.0]),                 # NaN distances
        ([1.0, 2.0], [np.nan, 1.0, 3.0]),
        ([np.inf], [1.0, 2.0]),                 # a row with no finite distance
    ])
    def test_non_finite_distances_raise(self, s1, s2):
        with pytest.raises(ValueError, match="NaN or a row with no finite entry"):
            spectra_match(s1, s2, 1.0)

    def test_infeasible_costs_raise(self):
        # each row is finite only at column 0, so no pairing has a finite sum
        with pytest.raises(ValueError, match="infeasible"):
            _least_sum_assignment(np.array([[1.0, np.inf], [2.0, np.inf]]))

    def test_empty_input(self):
        dist, ok, leftover = spectra_match([], [], 0.0)
        assert (dist, ok, leftover.size) == (0.0, True, 0)

    @pytest.mark.parametrize("k, n", [(2, 18), (4, 15)])
    def test_moved_eigenvalue_fails(self, k, n):
        # (2, 18) has 9 structural zeros whose dense values stay unpaired;
        # (4, 15) has none. Moving any one nonzero eigenvalue by 10 * tol must fail.
        a = np.random.default_rng(18).standard_normal(n)
        spectrum = formula_spectrum(a, k, n)
        dense = dense_spectrum_oracle(build_matrix(a, k, n))
        nonzero = spectrum.eigenvalues[spectrum.zero_multiplicity:]
        tol = 1e-7 * n
        assert spectra_match(nonzero, dense, tol)[1]
        for j in range(nonzero.size):
            moved = nonzero.copy()
            moved[j] += 10 * tol * np.exp(0.7j)
            dist, ok, _ = spectra_match(moved, dense, tol)
            assert not ok and dist > 9 * tol, (j, dist)


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

    @pytest.mark.parametrize("rows", [1, 3])
    def test_stack_is_refused(self, rows):
        a = np.random.default_rng(17).standard_normal((rows, 6))
        with pytest.raises(ValueError, match=f"one input's spectrum, not {rows} rows"):
            export_spectrum_csv(formula_spectrum(a, 2, 6), io.StringIO())
