import json
import math
import zlib

import numpy as np
import pytest

from helpers import reference_oracle_sweep, run_python
from kcirculant.montecarlo import (
    DEFAULT_MASTER_SEED,
    G_MAX,
    SWEEP_STACK,
    ExperimentConfig,
    ExperimentReport,
    HypothesisError,
    INPUT_LAWS,
    KIND_GUMBEL,
    KIND_LSD2,
    KIND_LSD3,
    KIND_LSD4,
    derive_trial_seed,
    hypothesis_check,
    input_law,
    oracle_sweep,
    run_gumbel_experiment,
    run_lsd_experiment,
)


class TestSeeding:
    def test_deterministic(self):
        assert derive_trial_seed(42, 7) == derive_trial_seed(42, 7)

    def test_distinct_streams(self):
        seeds = {derive_trial_seed(42, i) for i in range(1001)}
        assert len(seeds) == 1001

    def test_masters_decorrelate(self):
        a = [derive_trial_seed(1, i) for i in range(100)]
        b = [derive_trial_seed(2, i) for i in range(100)]
        assert not set(a) & set(b)


class TestInputLaws:
    def test_aliases(self):
        assert input_law("exp").name == "centered_exponential"
        assert input_law("normal").name == "gaussian"
        with pytest.raises(ValueError):
            input_law("cauchy")

    @pytest.mark.parametrize("name", sorted(INPUT_LAWS))
    def test_sample_moments(self, name):
        law = INPUT_LAWS[name]
        mean, var, m3 = law.moment_check
        assert (mean, var) == (0.0, 1.0)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x = law.sample(rng, 10**5)
        n = x.size
        assert abs(x.mean()) < 3.0 / math.sqrt(n)
        if name == "rademacher":
            assert np.all(x**2 == 1.0)
            assert x.var() == pytest.approx(1.0, abs=1e-4)  # 1 - mean^2
        else:
            m4 = ((x - x.mean()) ** 4).mean()
            assert abs(x.var() - 1.0) < 3.0 * math.sqrt(max(m4 - 1.0, 0.1) / n)
        sample_m3 = np.abs(x) ** 3
        band = max(4.0 * sample_m3.std() / math.sqrt(n), 1e-12)
        assert abs(sample_m3.mean() - m3) <= band


class TestExperimentConfig:
    @pytest.mark.parametrize("kind, tolerances", [
        (KIND_LSD3, {"bogus": 1}),
        (KIND_LSD2, {"radial_ks_mean": 0.1}),
        (KIND_LSD3, {"angular_ks_mean": 0.1}),
        (KIND_LSD4, {"angular_grid_dev": 0.1}),
        (KIND_GUMBEL, {"band_mass_min": 0.5}),
    ])
    def test_rejects_tolerance_keys_of_other_kinds(self, kind, tolerances):
        with pytest.raises(ValueError, match="do not apply"):
            ExperimentConfig(kind=kind, k=10, n=101, tolerances=tolerances)

    @pytest.mark.parametrize("kind", [KIND_LSD2, KIND_GUMBEL])
    def test_rejects_g_where_unused(self, kind):
        with pytest.raises(ValueError, match="g does not apply"):
            ExperimentConfig(kind=kind, k=10, n=101, g=2)


class TestHypothesisChecks:
    def test_minus_one_family(self):
        cfg = ExperimentConfig(kind=KIND_LSD3, k=10, n=101, trials=1)
        hyp = hypothesis_check(cfg)
        assert hyp["g"] == 2 and hyp["s"] == 1 and hyp["g1"] == 4
        assert hyp["g1_matches_expected"]

    def test_minus_one_rejects(self):
        cfg = ExperimentConfig(kind=KIND_LSD3, k=10, n=100, g=2, trials=1)
        with pytest.raises(HypothesisError):
            hypothesis_check(cfg)

    def test_plus_one_family(self):
        cfg = ExperimentConfig(kind=KIND_LSD4, k=100, n=9999, trials=1)
        hyp = hypothesis_check(cfg)
        assert hyp["g"] == 2 and hyp["s"] == 1 and hyp["g1"] == 2

    def test_plus_one_g1_needs_k1(self):
        cfg = ExperimentConfig(kind=KIND_LSD4, k=3, n=10, g=1, trials=1)
        with pytest.raises(HypothesisError):
            hypothesis_check(cfg)

    @pytest.mark.parametrize("g", [0, -2, G_MAX + 1, 10**9])
    def test_g_outside_range_rejected(self, g):
        # refused before the congruence, which would form 10**g
        cfg = ExperimentConfig(kind=KIND_LSD4, k=10, n=9999, g=g, trials=1)
        with pytest.raises(HypothesisError, match="--g"):
            hypothesis_check(cfg)

    def test_degenerate_circle_needs_coprime(self):
        cfg = ExperimentConfig(kind=KIND_LSD2, k=2, n=10, trials=1)
        with pytest.raises(HypothesisError):
            hypothesis_check(cfg)

    def test_gumbel_family_shape(self):
        cfg = ExperimentConfig(kind=KIND_GUMBEL, k=20, n=401, trials=1)
        hyp = hypothesis_check(cfg)
        assert hyp["q"] == 100 and hyp["four_blocks"] == 100

    def test_gumbel_rejects_other_n(self):
        cfg = ExperimentConfig(kind=KIND_GUMBEL, k=20, n=400, trials=1)
        with pytest.raises(HypothesisError):
            hypothesis_check(cfg)


class TestLsdExperiments:
    def test_roots_law_small(self):
        cfg = ExperimentConfig(kind=KIND_LSD3, k=10, n=101, trials=3,
                               master_seed=5,
                               tolerances={"radial_ks_mean": 0.4})
        report = run_lsd_experiment(cfg)
        assert report.passed
        assert report.aggregates["angular_grid_dev_max"] < 1e-9
        for trial in report.trials:
            assert 0 <= trial["radial_ks"] <= 1

    def test_uniform_law_small(self):
        cfg = ExperimentConfig(kind=KIND_LSD4, k=10, n=99, trials=3,
                               master_seed=6, law="centered_exponential",
                               tolerances={"radial_ks_mean": 0.4,
                                           "angular_ks_mean": 0.4})
        report = run_lsd_experiment(cfg)
        assert report.passed
        assert set(report.trials[0]) == {"trial", "seed", "radial_ks", "angular_ks"}

    def test_degenerate_circle_small(self):
        cfg = ExperimentConfig(kind=KIND_LSD2, k=2, n=729, trials=2,
                               master_seed=7,
                               tolerances={"band_mass_min": 0.5, "epsilon": 0.1})
        report = run_lsd_experiment(cfg)
        assert report.passed
        assert all(0 <= t["band_mass"] <= 1 for t in report.trials)

    def test_radial_ks_shrinks_with_n(self):
        # seed-averaged distance should drop as the matched family grows
        def mean_ks(k, n):
            cfg = ExperimentConfig(kind=KIND_LSD3, k=k, n=n, trials=3,
                                   master_seed=11,
                                   tolerances={"radial_ks_mean": 1.0})
            return run_lsd_experiment(cfg).aggregates["radial_ks_mean"]

        assert mean_ks(100, 10001) < mean_ks(10, 101)

    def test_report_json_round_trips(self):
        cfg = ExperimentConfig(kind=KIND_LSD3, k=10, n=101, trials=2,
                               master_seed=8,
                               tolerances={"radial_ks_mean": 1.0})
        report = run_lsd_experiment(cfg)
        payload = json.loads(report.to_json())
        assert payload["config"]["k"] == 10
        assert payload["pass"] is True
        assert "wall_clock" not in json.dumps(payload)
        assert len(payload["trials"]) == 2


class TestGumbelExperiment:
    def test_small_run(self):
        cfg = ExperimentConfig(kind=KIND_GUMBEL, k=20, n=401, trials=40,
                               master_seed=9,
                               tolerances={"ks_gumbel": 0.6, "ks_reference": 0.6})
        report = run_gumbel_experiment(cfg)
        assert report.passed
        assert "ks_gumbel" in report.aggregates
        assert "ks_reference" in report.aggregates
        assert len(report.trials) == 40

    def test_single_trial_has_no_ks(self):
        cfg = ExperimentConfig(kind=KIND_GUMBEL, k=20, n=401, trials=1,
                               master_seed=10)
        report = run_gumbel_experiment(cfg)
        assert report.passed
        assert "ks_gumbel" not in report.aggregates
        assert "standardized" in report.trials[0]


class TestOracleSweep:
    def test_two_by_two_closed_form(self):
        report = oracle_sweep(2, 3, master_seed=1)
        assert report.passed
        assert report.aggregates["pairs"] == 1
        assert report.aggregates["max_distance"] < 1e-10

    def test_small_sweep_clean(self):
        report = oracle_sweep(12, 2, master_seed=2)
        assert report.passed
        assert report.aggregates["failures"] == 0
        gcd_pairs = [t for t in report.trials if t["zero_multiplicity"] > 0]
        assert gcd_pairs, "sweep must include gcd(k, n) > 1 cases"

    def test_fuzz_flags_failure(self):
        report = oracle_sweep(8, 1, master_seed=3, fuzz=1e-3)
        assert not report.passed
        assert report.aggregates["failures"] > 0

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            oracle_sweep(129, 1, master_seed=0)

    @pytest.mark.parametrize("seed, fuzz", [(4, 0.0), (5, 0.0), (4, 1e-3)])
    def test_matches_one_sample_at_a_time(self, seed, fuzz):
        report = oracle_sweep(14, 3, master_seed=seed, fuzz=fuzz)
        assert report.to_json() == reference_oracle_sweep(14, 3, seed, fuzz=fuzz).to_json()
        assert report.passed is not bool(fuzz)

    def test_memory_does_not_grow_with_samples(self):
        import tracemalloc

        def peak(samples):
            tracemalloc.start()
            try:
                oracle_sweep(24, samples, master_seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        oracle_sweep(24, 1, master_seed=1)  # imports the assignment solver untraced
        assert SWEEP_STACK <= 8
        assert peak(64) <= 1.25 * peak(8)

    @pytest.mark.parametrize("arg", ["tol_factor", "fuzz"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_arguments(self, arg, value):
        with pytest.raises(ValueError, match=f"{arg} must be a finite number"):
            oracle_sweep(4, 1, master_seed=0, **{arg: value})


class TestFiniteReports:
    @pytest.mark.parametrize("kind, key", [(KIND_LSD3, "radial_ks_mean"),
                                           (KIND_LSD2, "epsilon"),
                                           (KIND_GUMBEL, "ks_reference")])
    def test_config_names_non_finite_tolerance(self, kind, key):
        with pytest.raises(ValueError, match=f"{key} must be a finite number, got nan"):
            ExperimentConfig(kind=kind, k=3, n=10, trials=2, tolerances={key: math.nan})

    def test_to_json_refuses_non_finite_values(self):
        report = ExperimentReport(config={}, hypothesis={}, trials=[],
                                  aggregates={"radial_ks_mean": math.nan}, passed=False)
        with pytest.raises(ValueError):
            report.to_json()


def fresh_report(runner: str, cfg: dict) -> str:
    """The JSON report of runner(ExperimentConfig(**cfg)) from a new interpreter."""
    code = ("import sys\nfrom kcirculant.montecarlo import *\n"
            f"sys.stdout.write({runner}(ExperimentConfig(**{cfg!r})).to_json())")
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestReproducibility:
    # each report is built twice in fresh processes (cold structure cache)
    # and once here, where the cache may be warm; all three must agree
    def test_threaded_run_matches_serial(self):
        cfg = dict(kind=KIND_LSD3, k=10, n=101, trials=6, master_seed=123,
                   tolerances={"radial_ks_mean": 1.0})
        first = fresh_report("run_lsd_experiment", cfg)
        assert first == fresh_report("run_lsd_experiment", cfg)
        assert first == run_lsd_experiment(ExperimentConfig(**cfg)).to_json()

    def test_gumbel_threaded_matches_serial(self):
        cfg = dict(kind=KIND_GUMBEL, k=10, n=101, trials=8, master_seed=321,
                   tolerances={"ks_gumbel": 1.0, "ks_reference": 1.0})
        first = fresh_report("run_gumbel_experiment", cfg)
        assert first == fresh_report("run_gumbel_experiment", cfg)
        assert first == run_gumbel_experiment(ExperimentConfig(**cfg)).to_json()

    def test_default_seed_is_stable(self):
        assert DEFAULT_MASTER_SEED == 20260811
