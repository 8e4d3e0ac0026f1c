"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with -s to see them). Tolerances are fixed here and
every statistical criterion runs at the library's default master seed, so the
whole module is deterministic.
"""

import json
import math
import random
import time

import numpy as np
import pytest

import kcirculant as kc
from helpers import (
    det_probe_oracle,
    gcd_power_bound,
    kbar_closed_form,
    kcirc,
    lower_order_count_ie,
)
from kcirculant.montecarlo import (
    DEFAULT_MASTER_SEED,
    ExperimentConfig,
    KIND_GUMBEL,
    KIND_LSD2,
    KIND_LSD3,
    KIND_LSD4,
    run_gumbel_experiment,
    run_lsd_experiment,
)
from kcirculant.numtheory import decompose, factorize


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    out = kcirc("verify", "--nmax", "40", "--samples", "5",
                "--seed", str(DEFAULT_MASTER_SEED))
    elapsed = time.perf_counter() - t0
    assert out.returncode == 0, out.stdout + out.stderr
    assert "pairs=780" in out.stdout
    assert "failures=0" in out.stdout
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"

    rng = np.random.default_rng(DEFAULT_MASTER_SEED)
    worst = 0.0
    for n, k in [(8, 3), (16, 2), (50, 7), (101, 10), (128, 24), (200, 63), (200, 50)]:
        a = rng.standard_normal(n)
        radii = rng.uniform(2.5, 3.5, 10) * math.sqrt(n)
        points = radii * np.exp(1j * rng.uniform(0, 2 * math.pi, 10))
        probes = det_probe_oracle(a, k, n, points)
        worst = max(worst, max(p.rel_diff for p in probes))
    assert worst < 1e-8, worst
    print(f"\ncriterion 1: PASS (780 pairs matched, {elapsed:.1f}s; "
          f"worst determinant probe rel diff {worst:.2e})")


def test_criterion_2_counting_lemmas():
    rnd = random.Random(DEFAULT_MASTER_SEED)
    checked = 0
    for m in range(2, 2001):
        coprime = [k for k in range(1, m) if math.gcd(k, m) == 1]
        for k in rnd.sample(coprime, min(20, len(coprime))):
            params = decompose(m if m > 1 else 2, k)
            direct = kc.orbit_summary(params).upsilon * m
            assert direct.denominator == 1
            count = lower_order_count_ie(params)
            assert count == direct.numerator, (m, k)
            g1 = kc.orbit_summary(params).g1
            leading = sum(math.gcd(pow(k, g1 // p, m) - 1, m)
                          for p, _ in factorize(g1))
            assert count <= leading, (m, k)
            checked += 1

    bound_cases = 0
    for k in range(2, 11):
        for b in range(1, 13):
            for c in range(1, 13):
                for sb in (-1, 1):
                    for sc in (-1, 1):
                        assert gcd_power_bound(k, b, c, sb, sc)[2], (k, b, c, sb, sc)
                        bound_cases += 1
    print(f"\ncriterion 2: PASS (inclusion-exclusion == direct count on "
          f"{checked} (n', k) cases; gcd bound holds on {bound_cases} cases)")


def test_criterion_3_roots_of_unity_law_desk_scale():
    t0 = time.perf_counter()
    config = ExperimentConfig(kind=KIND_LSD3, k=100, n=10001, trials=5,
                              master_seed=DEFAULT_MASTER_SEED)
    report = run_lsd_experiment(config)
    elapsed = time.perf_counter() - t0
    assert report.aggregates["angular_grid_dev_max"] < 1e-9
    assert report.aggregates["radial_ks_mean"] < 0.05
    assert report.passed
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"\ncriterion 3: PASS (angular grid deviation "
          f"{report.aggregates['angular_grid_dev_max']:.2e}, mean radial KS "
          f"{report.aggregates['radial_ks_mean']:.4f}, {elapsed:.1f}s)")


def test_criterion_4_uniform_circle_law_desk_scale():
    stats = {}
    for law in ("gaussian", "centered_exponential"):
        config = ExperimentConfig(kind=KIND_LSD4, k=100, n=9999, trials=5,
                                  law=law, master_seed=DEFAULT_MASTER_SEED)
        report = run_lsd_experiment(config)
        assert report.aggregates["radial_ks_mean"] < 0.06, law
        assert report.aggregates["angular_ks_mean"] < 0.06, law
        assert report.passed, law
        stats[law] = (report.aggregates["radial_ks_mean"],
                      report.aggregates["angular_ks_mean"])
    pretty = "; ".join(f"{law}: radial {r:.4f}, angular {a:.4f}"
                       for law, (r, a) in stats.items())
    print(f"\ncriterion 4: PASS ({pretty})")


def test_criterion_5_degenerate_circle_desk_scale():
    config = ExperimentConfig(kind=KIND_LSD2, k=2, n=6561, trials=3,
                              master_seed=DEFAULT_MASTER_SEED)
    assert config.tolerances["radius"] == pytest.approx(0.7493060012884490, abs=1e-12)
    report = run_lsd_experiment(config)
    assert report.aggregates["band_mass_min"] >= 0.9
    assert report.passed
    print(f"\ncriterion 5: PASS (annulus mass per trial >= "
          f"{report.aggregates['band_mass_min']:.4f} at radius 0.7493 +- 0.05)")


def test_criterion_6_gumbel_substitutes():
    t0 = time.perf_counter()
    # (a) i.i.d. reference maxima against the standard Gumbel CDF
    reference = kc.iid_max_reference(10**5, 2000, DEFAULT_MASTER_SEED)
    ks_reference_gumbel = kc.ks_one_sample(reference, kc.gumbel_cdf)
    assert ks_reference_gumbel < 0.05

    # (b) spectral radii vs the equal-q reference, and universality across laws
    runs = {}
    for law in ("gaussian", "centered_exponential"):
        config = ExperimentConfig(kind=KIND_GUMBEL, k=70, n=4901, trials=1000,
                                  law=law, master_seed=DEFAULT_MASTER_SEED)
        runs[law] = run_gumbel_experiment(config)
    gauss = runs["gaussian"]
    assert gauss.aggregates["ks_reference"] < 0.08
    assert gauss.passed
    gauss_vals = np.array([t["standardized"] for t in gauss.trials])
    exp_vals = np.array([t["standardized"] for t in runs["centered_exponential"].trials])
    ks_universality = kc.ks_two_sample(gauss_vals, exp_vals)
    assert ks_universality < 0.08
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    print(f"\ncriterion 6: PASS (reference-to-Gumbel KS {ks_reference_gumbel:.4f}; "
          f"radii-to-reference KS {gauss.aggregates['ks_reference']:.4f}; "
          f"gaussian-vs-exponential KS {ks_universality:.4f}; {elapsed:.1f}s)")


def test_criterion_7_tail_law():
    worst_rel = 0.0
    for x in np.logspace(math.log10(0.01), 2.0, 41):
        ref = kbar_closed_form(float(x))
        worst_rel = max(worst_rel, abs(kc.kbar(float(x)) - ref) / ref)
    assert worst_rel < 1e-6

    ratio_100 = kc.kbar(100.0) / kc.kbar_asymptotic(100.0)
    ratio_400 = kc.kbar(400.0) / kc.kbar_asymptotic(400.0)
    assert abs(ratio_100 - 1.0) < 0.03
    assert abs(ratio_400 - 1.0) < 0.01

    residuals = {}
    for x in (1.0, 4.0, 10.0, 50.0):
        h = 0.08 * math.sqrt(x)
        second = (-kc.kbar(x + 2 * h) + 16 * kc.kbar(x + h) - 30 * kc.kbar(x)
                  + 16 * kc.kbar(x - h) - kc.kbar(x - 2 * h)) / (12 * h * h)
        residuals[x] = abs(x * second - kc.kbar(x)) / kc.kbar(x)
        assert residuals[x] < 1e-4, (x, residuals[x])
    print(f"\ncriterion 7: PASS (tail vs closed form worst rel {worst_rel:.2e}; "
          f"asymptotic ratios {ratio_100:.4f} @100, {ratio_400:.4f} @400; "
          f"max ODE residual {max(residuals.values()):.2e})")


def test_criterion_8_reproducibility(tmp_path):
    json_paths = []
    csv_paths = []
    for tag in ("first", "second"):  # each command runs in two fresh processes
        jp = tmp_path / f"lsd_{tag}.json"
        out = kcirc("lsd", "--theorem", "3", "--k", "10", "--n", "101",
                    "--trials", "4", "--seed", "2024", "--tol-radial", "0.9",
                    "--out", str(jp))
        assert out.returncode == 0, out.stderr
        json_paths.append(jp)

        gp = tmp_path / f"gumbel_{tag}.json"
        out = kcirc("gumbel", "--kk", "20", "--trials", "16", "--seed", "2024",
                    "--tol-gumbel", "0.9", "--tol-reference", "0.9",
                    "--out", str(gp))
        assert out.returncode == 0, out.stderr
        json_paths.append(gp)

        cp = tmp_path / f"cloud_{tag}.csv"
        out = kcirc("spectrum", "--k", "3", "--n", "64", "--trials", "3",
                    "--seed", "2024", "--out", str(cp))
        assert out.returncode == 0, out.stderr
        csv_paths.append(cp)

    assert json_paths[0].read_bytes() == json_paths[2].read_bytes()
    assert json_paths[1].read_bytes() == json_paths[3].read_bytes()
    assert csv_paths[0].read_bytes() == csv_paths[1].read_bytes()
    payload = json.loads(json_paths[0].read_text())
    assert "wall" not in json.dumps(payload)
    # the block-modulus radius is the largest |eigenvalue| of the full spectrum
    gaussian = kc.input_law("gaussian")
    for trial in json.loads(json_paths[1].read_text())["trials"]:
        a = gaussian.sample(np.random.default_rng(trial["seed"]), 401)
        spectrum = kc.formula_spectrum(a, 20, 401)
        assert trial["sp"] == np.abs(spectrum.eigenvalues).max() / math.sqrt(401), trial
    print("\ncriterion 8: PASS (JSON and CSV byte-identical across two fresh "
          "runs; every gumbel radius equals the full spectrum's)")


def test_criterion_9_product_laws_beyond_g2():
    runs = {}
    for kind, k, n, g in ((KIND_LSD3, 21, 9262, 3), (KIND_LSD4, 10, 9999, 4)):
        t0 = time.perf_counter()
        config = ExperimentConfig(kind=kind, k=k, n=n, trials=5,
                                  master_seed=DEFAULT_MASTER_SEED)
        report = run_lsd_experiment(config)
        elapsed = time.perf_counter() - t0
        assert (report.hypothesis["g"], report.hypothesis["s"]) == (g, 1), kind
        assert report.passed, (kind, report.aggregates)
        assert elapsed < 30.0, f"{kind} took {elapsed:.1f}s"
        runs[g] = (report.aggregates["radial_ks_mean"], elapsed)
    pretty = "; ".join(f"g={g}: mean radial KS {ks:.4f}, {sec:.1f}s"
                       for g, (ks, sec) in runs.items())
    print(f"\ncriterion 9: PASS (theorem 3 at k=21 n=9262 and theorem 4 at "
          f"k=10 n=9999; {pretty})")
