"""Experiment orchestration: input laws, seeding, trial sweeps, reports.

Each experiment first checks the number-theoretic hypothesis its limit law
needs (and echoes the concrete congruence data for audit), then runs
independent trials from pre-derived seeds, one after another in index order.
Reports are deterministic given the master seed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import extremes, limits, spectral
from .numtheory import classify_regime, factorize, structure
from .seeding import derive_trial_seed

__all__ = [
    "HypothesisError",
    "InputLaw",
    "INPUT_LAWS",
    "input_law",
    "ExperimentConfig",
    "ExperimentReport",
    "FIGURE_PRESETS",
    "KIND_LSD2",
    "KIND_LSD3",
    "KIND_LSD4",
    "KIND_GUMBEL",
    "derive_trial_seed",
    "hypothesis_check",
    "run_lsd_experiment",
    "run_gumbel_experiment",
    "oracle_sweep",
]

DEFAULT_MASTER_SEED = 20260811
DFT_EXPERIMENT_CAP = 200_000
DENSE_ORACLE_CAP = 128
SWEEP_STACK = 8  # samples per stacked formula and dense solve in oracle_sweep
G_MAX = 24  # largest product exponent g an experiment accepts or infers
_REFERENCE_STREAM = 1 << 48  # seed-index offset for auxiliary reference samples


class HypothesisError(ValueError):
    """The requested (k, n, g) does not satisfy the experiment's congruence."""


class InputLaw:
    """A mean-zero, unit-variance distribution for the matrix input entries."""

    def __init__(self, name: str, sampler, abs_moment_3: float):
        self.name = name
        self._sampler = sampler
        self.abs_moment_3 = abs_moment_3

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._sampler(rng, size)

    @property
    def moment_check(self) -> tuple[float, float, float]:
        """(mean, variance, E|a|^(2+delta)) with delta = 1, all analytic."""
        return (0.0, 1.0, self.abs_moment_3)

    def __repr__(self):
        return f"InputLaw({self.name!r})"


_SQRT3 = math.sqrt(3.0)

INPUT_LAWS = {
    "gaussian": InputLaw("gaussian",
                         lambda rng, size: rng.standard_normal(size),
                         2.0 * math.sqrt(2.0 / math.pi)),
    "centered_exponential": InputLaw("centered_exponential",
                                     lambda rng, size: rng.exponential(1.0, size) - 1.0,
                                     12.0 / math.e - 2.0),
    "rademacher": InputLaw("rademacher",
                           lambda rng, size: rng.integers(0, 2, size) * 2.0 - 1.0,
                           1.0),
    "uniform": InputLaw("uniform",
                        lambda rng, size: rng.uniform(-_SQRT3, _SQRT3, size),
                        3.0 * _SQRT3 / 4.0),
}

_LAW_ALIASES = {"normal": "gaussian", "exp": "centered_exponential",
                "exponential": "centered_exponential"}


def input_law(name_or_law) -> InputLaw:
    if isinstance(name_or_law, InputLaw):
        return name_or_law
    key = _LAW_ALIASES.get(name_or_law, name_or_law)
    try:
        return INPUT_LAWS[key]
    except KeyError:
        raise ValueError(f"unknown input law {name_or_law!r}; "
                         f"choose from {sorted(INPUT_LAWS)}") from None


KIND_LSD2 = "lsd_theorem2"
KIND_LSD3 = "lsd_theorem3"
KIND_LSD4 = "lsd_theorem4"
KIND_GUMBEL = "gumbel_theorem5"

DEFAULT_TOLERANCES = {
    KIND_LSD2: {"band_mass_min": 0.9, "radius": limits.DEGENERATE_RADIUS, "epsilon": 0.05},
    KIND_LSD3: {"radial_ks_mean": 0.05, "angular_grid_dev": 1e-9},
    KIND_LSD4: {"radial_ks_mean": 0.06, "angular_ks_mean": 0.06},
    KIND_GUMBEL: {"ks_gumbel": 0.15, "ks_reference": 0.08},
}


@dataclass
class ExperimentConfig:
    kind: str
    k: int
    n: int
    g: int | None = None
    law: InputLaw | str = "gaussian"
    trials: int = 5
    master_seed: int = DEFAULT_MASTER_SEED
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in DEFAULT_TOLERANCES:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.g is not None and self.kind not in (KIND_LSD3, KIND_LSD4):
            raise ValueError(f"g does not apply to {self.kind}")
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES[self.kind]))
        if unknown:
            raise ValueError(f"tolerances {unknown} do not apply to {self.kind}")
        self.law = input_law(self.law)
        self.tolerances = {**DEFAULT_TOLERANCES[self.kind], **self.tolerances}
        _require_finite(self.tolerances)

    def echo(self) -> dict:
        return {"kind": self.kind, "k": self.k, "n": self.n, "g": self.g,
                "law": self.law.name, "trials": self.trials,
                "master_seed": self.master_seed,
                "tolerances": {key: self.tolerances[key] for key in sorted(self.tolerances)}}


@dataclass
class ExperimentReport:
    config: dict
    hypothesis: dict
    trials: list
    aggregates: dict
    passed: bool
    wall_clock_seconds: float = 0.0

    def to_json(self) -> str:
        """Canonical serialization; wall clock is excluded on purpose so that
        equal-seed runs are byte-identical."""
        payload = {"config": self.config, "hypothesis": self.hypothesis,
                   "trials": self.trials, "aggregates": self.aggregates,
                   "pass": self.passed}
        return json.dumps(_jsonify(payload), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"


def _require_finite(values: dict) -> None:
    for key, val in values.items():
        if not math.isfinite(val):
            raise ValueError(f"{key} must be a finite number, got {val!r}")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(key): _jsonify(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(val) for val in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(val) for val in obj.tolist()]
    return obj


def _smallest_prime_divisor(g: int) -> int:
    return factorize(g)[0][0] if g > 1 else 1


def infer_g(kind: str, k: int, n: int) -> int:
    """Smallest exponent g <= G_MAX with k^g = -1 (mod n) (lsd3) or +1 (lsd4)."""
    target = n - 1 if kind == KIND_LSD3 else 1
    kg = 1
    for g in range(1, G_MAX + 1):
        kg = kg * k % n
        if kg == target:
            return g
    sign = "-1" if kind == KIND_LSD3 else "+1"
    raise HypothesisError(f"no g <= {G_MAX} satisfies k^g = {sign} (mod n) "
                          f"for k={k}, n={n}")


def hypothesis_check(config: ExperimentConfig) -> dict:
    """Validate the congruence the experiment needs; echo audit data.

    Returns a JSON-safe dict with the concrete s, the smallest prime p1 of g,
    the ratio s / n^(p1 - 1) (the smallness the limit laws assume), the actual
    g1 and the lower-order fraction. Raises HypothesisError when the
    congruence fails.
    """
    k, n = config.k, config.n
    if config.kind in (KIND_LSD3, KIND_LSD4):
        if math.gcd(k, n) != 1:
            raise HypothesisError(f"gcd(k, n) = {math.gcd(k, n)} != 1 for k={k}, n={n}")
        g = config.g if config.g is not None else infer_g(config.kind, k, n)
        if not 1 <= g <= G_MAX:  # checked before classify_regime forms k**g
            raise HypothesisError(f"--g must be between 1 and {G_MAX}, got {g}")
        regime = classify_regime(g, k, n)
        want = "minus_one" if config.kind == KIND_LSD3 else "plus_one"
        sign = "-1" if want == "minus_one" else "+1"
        if regime.case != want:
            raise HypothesisError(
                f"hypothesis violated: k^g = {sign} (mod n) fails for "
                f"k={k}, g={g}, n={n} (k^g mod n = {pow(k, g, n)})")
        if want == "minus_one" and g == 1 and regime.s != 1:
            raise HypothesisError(f"g=1 requires s=1 (k = n-1); got s={regime.s}")
        if want == "plus_one" and g == 1 and regime.s != 0:
            raise HypothesisError(f"g=1 requires s=0 (k = 1); got s={regime.s}")
        p1 = _smallest_prime_divisor(g)
        expected_g1 = 2 * g if want == "minus_one" else g
        return {"g": g, "s": regime.s, "p1": p1,
                "s_over_n_pow_p1_minus_1": regime.s / n ** (p1 - 1),
                "g1": regime.g1, "g1_matches_expected": regime.g1 == expected_g1,
                "upsilon": float(regime.upsilon), "upsilon_exact": regime.upsilon}
    if config.kind == KIND_LSD2:
        if k < 2:
            raise HypothesisError("the degenerate-circle law needs k >= 2")
        if math.gcd(k, n) != 1:
            raise HypothesisError(f"gcd(k, n) = {math.gcd(k, n)} != 1 for k={k}, n={n}")
        regime = classify_regime(1, k, n)
        return {"log_k_over_log_n": math.log(k) / math.log(n),
                "g1": regime.g1, "upsilon": float(regime.upsilon),
                "upsilon_exact": regime.upsilon}
    if config.kind == KIND_GUMBEL:
        if n != k * k + 1:
            raise HypothesisError(f"spectral-radius experiments need n = k^2 + 1; "
                                  f"got k={k}, n={n} (k^2+1 = {k * k + 1})")
        partition = structure(n, k)[1]
        sizes = partition.sizes  # the self-conjugate singletons are {0} and {n/2}
        allowed = (sizes == 4) | ((sizes == 1) & partition.self_conjugate)
        if not allowed.all():
            blk = partition.blocks[int(np.argmin(allowed))]
            raise HypothesisError(f"partition block {blk} is neither a 4-block "
                                  f"nor an allowed singleton")
        return {"q": n // 4, "g1": partition.g1,
                "four_blocks": int(np.count_nonzero(sizes == 4))}
    raise ValueError(f"unknown kind {config.kind!r}")


def _aggregate(trials: list[dict], keys: list[str]) -> dict:
    agg = {}
    for key in keys:
        vals = np.array([t[key] for t in trials], dtype=float)
        agg[f"{key}_mean"] = float(vals.mean())
        agg[f"{key}_max"] = float(vals.max())
        agg[f"{key}_min"] = float(vals.min())
    return agg


def run_lsd_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Limit-law experiment: per trial, draw an input, take the exact spectrum,
    and measure the ESD against the configured law."""
    t0 = time.perf_counter()
    k, n = config.k, config.n
    if n > DFT_EXPERIMENT_CAP:
        raise ValueError(f"n = {n} exceeds the experiment cap of {DFT_EXPERIMENT_CAP}")
    hypothesis = hypothesis_check(config)
    tol = config.tolerances

    if config.kind == KIND_LSD3:
        law = limits.LsdLaw.roots_of_unity_product(hypothesis["g"])
    elif config.kind == KIND_LSD4:
        law = limits.LsdLaw.uniform_circle_product(hypothesis["g"])
    else:
        law = limits.LsdLaw.degenerate_circle(tol["radius"])

    trials = []
    for i in range(config.trials):
        seed = derive_trial_seed(config.master_seed, i)
        a = config.law.sample(np.random.default_rng(seed), n)
        sample = limits.esd(spectral.formula_spectrum(a, k, n))
        record = {"trial": i, "seed": seed}
        if config.kind == KIND_LSD2:
            record["band_mass"] = limits.band_mass(sample, tol["radius"], tol["epsilon"])
        else:
            record["radial_ks"] = limits.ks_radial(sample, law)
            angular = limits.angular_test(sample, law)
            if config.kind == KIND_LSD3:
                record["angular_grid_dev"] = angular["max_grid_deviation"]
            else:
                record["angular_ks"] = angular["uniform_ks"]
        trials.append(record)

    if config.kind == KIND_LSD2:
        aggregates = _aggregate(trials, ["band_mass"])
        passed = aggregates["band_mass_min"] >= tol["band_mass_min"]
    elif config.kind == KIND_LSD3:
        aggregates = _aggregate(trials, ["radial_ks", "angular_grid_dev"])
        passed = (aggregates["radial_ks_mean"] < tol["radial_ks_mean"]
                  and aggregates["angular_grid_dev_max"] < tol["angular_grid_dev"])
    else:
        aggregates = _aggregate(trials, ["radial_ks", "angular_ks"])
        passed = (aggregates["radial_ks_mean"] < tol["radial_ks_mean"]
                  and aggregates["angular_ks_mean"] < tol["angular_ks_mean"])

    return ExperimentReport(config=config.echo(), hypothesis=hypothesis,
                            trials=trials, aggregates=aggregates, passed=bool(passed),
                            wall_clock_seconds=time.perf_counter() - t0)


def run_gumbel_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Spectral-radius experiment on the n = k^2 + 1 family.

    Per trial: spectral radius of the 1/sqrt(n)-scaled matrix, standardized by
    the Gumbel normalization at q = floor(n/4). The standardized sample is
    compared to the standard Gumbel CDF and, two-sample, to an equal-size
    i.i.d.-maximum reference drawn from an auxiliary seed stream.
    """
    t0 = time.perf_counter()
    k, n = config.k, config.n
    if n > DFT_EXPERIMENT_CAP:
        raise ValueError(f"n = {n} exceeds the experiment cap of {DFT_EXPERIMENT_CAP}")
    hypothesis = hypothesis_check(config)
    q = n // 4
    norm = extremes.normalization(q)
    tol = config.tolerances
    scale = math.sqrt(n)
    trials = []
    for i in range(config.trials):
        seed = derive_trial_seed(config.master_seed, i)
        a = config.law.sample(np.random.default_rng(seed), n)
        sp = spectral.formula_radius(a, k, n) / scale
        trials.append({"trial": i, "seed": seed, "sp": sp,
                       "standardized": extremes.standardize_radius(sp, norm)})
    values = np.array([t["standardized"] for t in trials])
    aggregates = _aggregate(trials, ["standardized"])
    if config.trials >= 2:
        reference = extremes.iid_max_reference(
            q, config.trials, derive_trial_seed(config.master_seed, _REFERENCE_STREAM))
        aggregates["ks_gumbel"] = limits.ks_one_sample(values, extremes.gumbel_cdf)
        aggregates["ks_reference"] = limits.ks_two_sample(values, reference)
        passed = (aggregates["ks_gumbel"] < tol["ks_gumbel"]
                  and aggregates["ks_reference"] < tol["ks_reference"])
    else:
        passed = True
    return ExperimentReport(config=config.echo(), hypothesis=hypothesis,
                            trials=trials, aggregates=aggregates, passed=bool(passed),
                            wall_clock_seconds=time.perf_counter() - t0)


def oracle_sweep(n_max: int, samples_per_pair: int, master_seed: int,
                 tol_factor: float = 1e-7, fuzz: float = 0.0) -> ExperimentReport:
    """Formula-vs-dense-eigensolver sweep over every (k, n) with n <= n_max.

    Nonzero eigenvalues must pair up within tol_factor * n. Structural zeros
    are checked as a cluster: a dense QR scatters a defective zero of Jordan
    depth m by roughly eps^(1/m), so the leftover dense values must have a
    tiny mean (first-order exact) and stay inside a generous scatter bound,
    and their count must equal n - n'. fuzz > 0 perturbs the formula side to
    exercise the failure path. Samples keep their own seeds but are solved in
    stacks of up to SWEEP_STACK; only the matching is per sample.
    """
    t0 = time.perf_counter()
    if n_max > DENSE_ORACLE_CAP:
        raise ValueError(f"dense sweep capped at n <= {DENSE_ORACLE_CAP}")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if samples_per_pair < 1:
        raise ValueError("samples_per_pair must be at least 1")
    _require_finite({"tol_factor": tol_factor, "fuzz": fuzz})
    pairs = [(n, k) for n in range(2, n_max + 1) for k in range(1, n)]
    trials = []
    failures = []
    worst = 0.0
    for idx, (n, k) in enumerate(pairs):
        tol = tol_factor * n
        pair_worst = pair_scatter = 0.0
        ok = True
        seeds = [derive_trial_seed(master_seed, idx * samples_per_pair + s)
                 for s in range(samples_per_pair)]
        for lo in range(0, samples_per_pair, SWEEP_STACK):
            a = np.stack([np.random.default_rng(seed).standard_normal(n)
                          for seed in seeds[lo:lo + SWEEP_STACK]])
            spectrum = spectral.formula_spectrum(a, k, n)
            zeros = spectrum.zero_multiplicity
            stack = spectral.dense_spectrum_oracle(spectral.build_matrix(a, k, n))
            for eigs, lam, dense in zip(spectrum.eigenvalues, spectrum.dft, stack):
                nonzero = eigs[zeros:]
                if fuzz:
                    nonzero = nonzero + fuzz
                if zeros == 0:
                    dist, matched = spectral.spectra_match(nonzero, dense, tol)
                    ok = ok and matched
                else:
                    from scipy.optimize import linear_sum_assignment

                    cost = np.abs(nonzero[:, None] - dense[None, :])
                    rows, cols = linear_sum_assignment(cost)
                    dist = float(cost[rows, cols].max()) if rows.size else 0.0
                    leftover = np.delete(dense, cols)
                    scale = max(1.0, float(np.abs(lam).max()))
                    centroid = abs(leftover.mean())
                    scatter = float(np.abs(leftover).max())
                    pair_scatter = max(pair_scatter, scatter)
                    ok = ok and dist <= tol and centroid <= 1e-8 * scale \
                        and scatter <= 0.05 * scale and leftover.size == zeros
                pair_worst = max(pair_worst, dist)
        record = {"n": n, "k": k, "max_distance": pair_worst,
                  "zero_multiplicity": spectrum.zero_multiplicity, "ok": ok}
        if spectrum.zero_multiplicity:
            record["zero_cluster_scatter"] = pair_scatter
        worst = max(worst, pair_worst)
        trials.append(record)
        if not ok:
            failures.append({"n": n, "k": k, "max_distance": pair_worst})

    aggregates = {"pairs": len(pairs), "samples_per_pair": samples_per_pair,
                  "max_distance": worst, "failures": len(failures),
                  "failure_list": failures}
    config = {"kind": "oracle_sweep", "n_max": n_max,
              "samples_per_pair": samples_per_pair, "master_seed": master_seed,
              "tol_factor": tol_factor, "fuzz": fuzz}
    return ExperimentReport(config=config, hypothesis={}, trials=trials,
                            aggregates=aggregates, passed=not failures,
                            wall_clock_seconds=time.perf_counter() - t0)


# Scatter-plot presets mirroring the classic illustration configurations;
# these emit point clouds for visual comparison and assert nothing.
FIGURE_PRESETS = {
    "ring_k1": {"k": 1, "n": 901, "law": "gaussian", "trials": 100},
    "ring_k2": {"k": 2, "n": 901, "law": "gaussian", "trials": 100},
    "cube_minus": {"k": 11, "n": 666, "law": "centered_exponential", "trials": 20},
    "cube_plus": {"k": 11, "n": 665, "law": "centered_exponential", "trials": 20},
    "near_square_minus": {"k": 16, "n": 253, "law": "gaussian", "trials": 100},
    "near_square_plus": {"k": 16, "n": 259, "law": "gaussian", "trials": 100},
}
