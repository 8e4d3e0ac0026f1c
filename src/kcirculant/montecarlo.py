"""Experiment orchestration: the table of experiment kinds, trial sweeps, reports.

KINDS has one row per theorem an experiment checks. One loop runs every row: it checks
the hypothesis (and echoes the concrete congruence data for audit), then runs independent
trials from pre-derived seeds, one after another in index order. Reports are deterministic
given the master seed; to_json writes them as they are, with no converted copy.
"""

from __future__ import annotations

import json
import math
import operator
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import extremes, limits, spectral
from .numtheory import decompose, factorize, orbit_summary
from .seeding import INPUT_LAWS, InputLaw, derive_trial_seed, input_law

__all__ = [
    "HypothesisError",
    "InputLaw",
    "INPUT_LAWS",
    "input_law",
    "ExperimentConfig",
    "ExperimentReport",
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
SWEEP_STACK = 8  # samples per stacked formula and dense solve in oracle_sweep
SWEEP_TOL_FACTOR = 1e-7  # oracle_sweep matches within this times n
G_MAX = 24  # largest product exponent g an experiment accepts or infers
_REFERENCE_STREAM = 1 << 48  # seed-index offset for auxiliary reference samples


class HypothesisError(ValueError):
    """The requested (k, n, g) does not satisfy the experiment's congruence."""


KIND_LSD2 = "lsd_theorem2"
KIND_LSD3 = "lsd_theorem3"
KIND_LSD4 = "lsd_theorem4"
KIND_GUMBEL = "gumbel_theorem5"


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
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        row = KINDS[self.kind]
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.g is not None and not row.takes_g:
            raise ValueError(f"g does not apply to {self.kind}")
        unknown = sorted(set(self.tolerances) - set(row.tolerances))
        if unknown:
            raise ValueError(f"tolerances {unknown} do not apply to {self.kind}")
        self.law = input_law(self.law)
        self.tolerances = {**{k: d for k, (d, _) in row.tolerances.items()}, **self.tolerances}
        _require_finite(self.tolerances)
        # every kind, before its hypothesis does any work on (k, n)
        if self.n < 2 or self.k < 1:
            raise ValueError(f"need n >= 2 and k >= 1, got n={self.n}, k={self.k}")
        if self.n > DFT_EXPERIMENT_CAP:
            raise ValueError(f"n = {self.n} exceeds the experiment cap of {DFT_EXPERIMENT_CAP}")
        if self.k >= self.n:  # k mod n, not k: k may run to thousands of digits
            raise ValueError(f"need k < n, got n={self.n}, k mod n={self.k % self.n}; "
                             "k and k mod n give the same matrix")

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
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                          default=_json_value) + "\n"


def _json_value(obj):
    """json.dumps' hook: a Fraction as its exact text, numpy values as Python ones."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _require_finite(values: dict) -> None:
    for key, val in values.items():
        if not math.isfinite(val):
            raise ValueError(f"{key} must be a finite number, got {val!r}")


def _require_coprime(k: int, n: int) -> None:
    if math.gcd(k, n) != 1:
        raise HypothesisError(f"gcd(k, n) = {math.gcd(k, n)} != 1 for k={k}, n={n}")


def _orbit_echo(k: int, n: int) -> dict:
    """The actual g1 and lower-order fraction upsilon of multiplication by k mod n."""
    orbits = orbit_summary(decompose(n, k))
    return {"g1": orbits.g1, "upsilon": float(orbits.upsilon), "upsilon_exact": orbits.upsilon}


def _congruence(sign: int):
    """Hypothesis of theorem 3 (sign -1) or 4 (+1): k^g = sign + s*n for the
    given g or the smallest g <= G_MAX. Echoes s, the smallest prime p1 of g,
    s / n^(p1 - 1) (the smallness the laws assume), g1 and upsilon."""
    s_at_g1, k_at_g1, g1_per_g = (1, "n-1", 2) if sign < 0 else (0, "1", 1)

    def check(config: ExperimentConfig) -> dict:
        k, n, g = config.k, config.n, config.g
        _require_coprime(k, n)
        residue = sign % n  # n - 1 or 1
        if g is None:
            g = next((g for g in range(1, G_MAX + 1) if pow(k, g, n) == residue), None)
            if g is None:
                raise HypothesisError(f"no g <= {G_MAX} satisfies k^g = {sign:+d} (mod n) "
                                      f"for k={k}, n={n}")
        if not 1 <= g <= G_MAX:  # checked before k**g is formed
            raise HypothesisError(f"--g must be between 1 and {G_MAX}, got {g}")
        if pow(k, g, n) != residue:
            raise HypothesisError(f"hypothesis violated: k^g = {sign:+d} (mod n) fails for "
                                  f"k={k}, g={g}, n={n} (k^g mod n = {pow(k, g, n)})")
        s = (k**g - sign) // n
        if g == 1 and s != s_at_g1:
            raise HypothesisError(f"g=1 requires s={s_at_g1} (k = {k_at_g1}); got s={s}")
        p1 = factorize(g)[0][0] if g > 1 else 1
        orbits = _orbit_echo(k, n)
        return {"g": g, "s": s, "p1": p1, "s_over_n_pow_p1_minus_1": s / n ** (p1 - 1),
                "g1_matches_expected": orbits["g1"] == g1_per_g * g, **orbits}

    return check


def _degenerate_circle(config: ExperimentConfig) -> dict:
    """Hypothesis of theorem 2: k >= 2 coprime with n."""
    if config.k < 2:
        raise HypothesisError("the degenerate-circle law needs k >= 2")
    _require_coprime(config.k, config.n)
    return {"log_k_over_log_n": math.log(config.k) / math.log(config.n),
            **_orbit_echo(config.k, config.n)}


def _square_plus_one(config: ExperimentConfig) -> dict:
    """Hypothesis of theorem 5: n = k^2 + 1, where every block is a 4-block
    except the singletons {0} and, for even n, {n/2}."""
    k, n = config.k, config.n
    if n != k * k + 1:
        raise HypothesisError(f"spectral-radius experiments need n = k^2 + 1; "
                              f"got k={k}, n={n} (k^2+1 = {k * k + 1})")
    orbits = orbit_summary(decompose(n, k))
    return {"q": n // 4, "g1": orbits.g1, "four_blocks": orbits.histogram.get(4, 0)}


def _gumbel_fit(trials: list[dict], config: ExperimentConfig, hypothesis: dict) -> dict:
    """KS of the standardized radii against the Gumbel CDF and an i.i.d. reference."""
    values = np.array([t["standardized"] for t in trials])
    reference = extremes.iid_max_reference(
        hypothesis["q"], config.trials, derive_trial_seed(config.master_seed, _REFERENCE_STREAM))
    return {"ks_gumbel": limits.ks_one_sample(values, extremes.gumbel_cdf),
            "ks_reference": limits.ks_two_sample(values, reference)}


@dataclass(frozen=True)
class ExperimentKind:
    """One row of KINDS. pass_rule rows are (aggregate key, comparison,
    tolerance key); every run produces each key, a one-trial Gumbel run too."""

    theorem: int
    command: str  # the kcirc subcommand that runs the kind
    hypothesis: Callable[[ExperimentConfig], dict]
    law: Callable[[dict, dict], object]  # (hypothesis, tolerances) -> g, r or norm, once a run
    statistics: tuple[tuple[str, Callable], ...]  # (key, fn(observed, law, tolerances))
    summarised: tuple[str, ...]  # statistics aggregated as mean, max and min
    pass_rule: tuple[tuple[str, Callable[[float, float], bool], str], ...]
    tolerances: dict[str, tuple[float, str]]  # key -> (default, flag that sets it)
    takes_g: bool = False
    run_statistics: Callable[[list, ExperimentConfig, dict], dict] = lambda *_: {}
    # (a, k, n) -> what the statistics read; by default the polar ESD (radii, angles)
    observe: Callable = lambda a, k, n: limits.esd(*spectral.formula_polar(a, k, n), n)


_RADIAL_KS = ("radial_ks", lambda esd, g, tol: limits.ks_radial(esd[0], g))

KINDS = {  # in the order the lsd and gumbel commands list their tolerance flags
    KIND_LSD3: ExperimentKind(
        theorem=3, command="lsd", hypothesis=_congruence(-1), takes_g=True,
        law=lambda hyp, tol: hyp["g"],
        statistics=(_RADIAL_KS, ("angular_grid_dev", lambda esd, g, tol:
                                 limits.grid_deviation(esd[1], g))),
        summarised=("radial_ks", "angular_grid_dev"),
        pass_rule=(("radial_ks_mean", operator.lt, "radial_ks_mean"),
                   ("angular_grid_dev_max", operator.lt, "angular_grid_dev")),
        tolerances={"radial_ks_mean": (0.05, "--tol-radial"),
                    "angular_grid_dev": (1e-9, "--tol-angular")}),
    KIND_LSD4: ExperimentKind(
        theorem=4, command="lsd", hypothesis=_congruence(+1), takes_g=True,
        law=lambda hyp, tol: hyp["g"],
        statistics=(_RADIAL_KS, ("angular_ks", lambda esd, g, tol:
                                 limits.uniform_angle_ks(esd[1]))),
        summarised=("radial_ks", "angular_ks"),
        pass_rule=(("radial_ks_mean", operator.lt, "radial_ks_mean"),
                   ("angular_ks_mean", operator.lt, "angular_ks_mean")),
        tolerances={"radial_ks_mean": (0.06, "--tol-radial"),
                    "angular_ks_mean": (0.06, "--tol-angular")}),
    KIND_LSD2: ExperimentKind(
        theorem=2, command="lsd", hypothesis=_degenerate_circle,
        law=lambda hyp, tol: tol["radius"],
        statistics=(("band_mass", lambda esd, r, tol:
                     limits.band_mass(esd[0], r, tol["epsilon"])),),
        summarised=("band_mass",),
        pass_rule=(("band_mass_min", operator.ge, "band_mass_min"),),
        tolerances={"band_mass_min": (0.9, "--tol-band"),
                    "radius": (limits.DEGENERATE_RADIUS, "--radius"),
                    "epsilon": (0.05, "--epsilon")}),
    KIND_GUMBEL: ExperimentKind(
        theorem=5, command="gumbel", hypothesis=_square_plus_one,
        observe=lambda a, k, n: spectral.formula_radius(a, k, n) / math.sqrt(n),
        law=lambda hyp, tol: extremes.normalization(hyp["q"]),
        statistics=(("sp", lambda sp, norm, tol: sp),
                    ("standardized", lambda sp, norm, tol:
                     extremes.standardize_radius(sp, norm))),
        summarised=("standardized",), run_statistics=_gumbel_fit,
        pass_rule=(("ks_gumbel", operator.lt, "ks_gumbel"),
                   ("ks_reference", operator.lt, "ks_reference")),
        tolerances={"ks_gumbel": (0.15, "--tol-gumbel"),
                    "ks_reference": (0.08, "--tol-reference")}),
}


def hypothesis_check(config: ExperimentConfig) -> dict:
    """The JSON-safe audit data of the config's hypothesis; HypothesisError if it fails."""
    return KINDS[config.kind].hypothesis(config)


def _aggregate(trials: list[dict], keys: tuple[str, ...]) -> dict:
    columns = {key: np.array([t[key] for t in trials], dtype=float) for key in keys}
    return {f"{key}_{stat}": float(getattr(column, stat)())
            for key, column in columns.items() for stat in ("mean", "max", "min")}


def _run(config: ExperimentConfig) -> ExperimentReport:
    """Run the config's row of KINDS: hypothesis, trials, aggregates, verdict."""
    t0 = time.perf_counter()
    kind = KINDS[config.kind]
    hypothesis = hypothesis_check(config)
    tol = config.tolerances
    law = kind.law(hypothesis, tol)
    trials = []
    for i in range(config.trials):
        seed = derive_trial_seed(config.master_seed, i)
        a = config.law.sample(np.random.default_rng(seed), config.n)
        observed = kind.observe(a, config.k, config.n)
        trials.append({"trial": i, "seed": seed,
                       **{key: stat(observed, law, tol) for key, stat in kind.statistics}})
    aggregates = {**_aggregate(trials, kind.summarised),
                  **kind.run_statistics(trials, config, hypothesis)}
    passed = all(holds(aggregates[key], tol[bound]) for key, holds, bound in kind.pass_rule)
    return ExperimentReport(config=config.echo(), hypothesis=hypothesis, trials=trials,
                            aggregates=aggregates, passed=passed,
                            wall_clock_seconds=time.perf_counter() - t0)


# Two functions, not two names for one: tracing wraps each by identity.
def run_lsd_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Limit-law experiment of theorem 2, 3 or 4 on the exact spectrum's ESD."""
    return _run(config)


def run_gumbel_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Spectral-radius experiment of theorem 5 on the n = k^2 + 1 family."""
    return _run(config)


def oracle_sweep(n_max: int, samples_per_pair: int, master_seed: int,
                 fuzz: float = 0.0) -> ExperimentReport:
    """Formula-vs-dense-eigensolver sweep over every (k, n) with n <= n_max.

    One spectra_match call per sample pairs the nonzero formula eigenvalues
    with dense ones, within SWEEP_TOL_FACTOR * n. Structural zeros are checked
    as a cluster: a dense QR scatters a defective zero of Jordan depth m by
    roughly eps^(1/m), so the dense values left unpaired must have a tiny mean
    (first-order exact) and stay inside a generous scatter bound, and their
    count must equal n - n'. fuzz > 0 perturbs the formula side to
    exercise the failure path. Samples keep their own seeds but are solved in
    stacks of up to SWEEP_STACK; only the matching is per sample.
    """
    t0 = time.perf_counter()
    if n_max > spectral.DENSE_ORACLE_CAP:
        raise ValueError(f"dense sweep capped at n <= {spectral.DENSE_ORACLE_CAP}")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if samples_per_pair < 1:
        raise ValueError("samples_per_pair must be at least 1")
    _require_finite({"fuzz": fuzz})
    pairs = [(n, k) for n in range(2, n_max + 1) for k in range(1, n)]
    trials = []
    failures = []
    worst = 0.0
    for idx, (n, k) in enumerate(pairs):
        tol = SWEEP_TOL_FACTOR * n
        pair_worst = pair_scatter = 0.0
        ok = True
        end = (idx + 1) * samples_per_pair  # trial indices of this pair end here
        for lo in range(end - samples_per_pair, end, SWEEP_STACK):
            a = np.stack([np.random.default_rng(derive_trial_seed(master_seed, t)).standard_normal(n)
                          for t in range(lo, min(lo + SWEEP_STACK, end))])
            spectrum = spectral.formula_spectrum(a, k, n)
            zeros = spectrum.zero_multiplicity
            stack = spectral.dense_spectrum_oracle(spectral.build_matrix(a, k, n))
            scales = np.maximum(1.0, np.abs(np.fft.rfft(a)).max(-1))  # 1 or max |lambda_t|
            for eigs, scale, dense in zip(spectrum.eigenvalues, scales, stack):
                nonzero = eigs[zeros:]
                if fuzz:
                    nonzero = nonzero + fuzz
                dist, matched, leftover = spectral.spectra_match(nonzero, dense, tol)
                centroid = abs(leftover.sum() / max(leftover.size, 1))
                scatter = float(np.abs(leftover).max(initial=0.0))
                pair_scatter = max(pair_scatter, scatter)
                ok = ok and matched and centroid <= 1e-8 * scale \
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
              "tol_factor": SWEEP_TOL_FACTOR, "fuzz": fuzz}
    return ExperimentReport(config=config, hypothesis={}, trials=trials,
                            aggregates=aggregates, passed=not failures,
                            wall_clock_seconds=time.perf_counter() - t0)
