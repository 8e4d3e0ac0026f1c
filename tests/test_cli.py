import argparse
import hashlib
import json
import sys
from fractions import Fraction

import numpy as np
import pytest

import kcirculant
from helpers import kcirc, run_python
from kcirculant import extremes, limits, montecarlo, numtheory, spectral
from kcirculant.cli import SPECTRUM_N_CAP, build_parser, main


class TestPartition:
    def test_k3_n10(self):
        out = kcirc("partition", "--k", "3", "--n", "10")
        assert out.returncode == 0
        assert "n'=10" in out.stdout
        assert "g1=4" in out.stdout
        assert "blocks=4" in out.stdout
        assert "upsilon=1/5" in out.stdout

    def test_k1_n7_singletons(self):
        out = kcirc("partition", "--k", "1", "--n", "7")
        assert out.returncode == 0
        assert "blocks=7" in out.stdout
        assert "1x7" in out.stdout

    def test_k2_n6_zero_multiplicity(self):
        out = kcirc("partition", "--k", "2", "--n", "6")
        assert out.returncode == 0
        assert "n'=3" in out.stdout
        assert "zero_multiplicity=3" in out.stdout

    def test_json_mode(self):
        out = kcirc("partition", "--k", "3", "--n", "10", "--json")
        payload = json.loads(out.stdout)
        assert payload["g1"] == 4
        assert payload["upsilon"] == "1/5"

    def test_degenerate_k_is_usage_error(self):
        out = kcirc("partition", "--k", "10", "--n", "5")
        assert out.returncode == 2
        assert "degenerate" in out.stderr

    def test_parse_failure(self):
        out = kcirc("partition", "--k", "x", "--n", "5")
        assert out.returncode == 2

    @pytest.mark.parametrize("k, n", [(3, 10), (2, 6), (12, 18), (6, 12), (5, 2000),
                                      (100, 10001), (2, 131071), (4, 100042)])
    def test_json_counts_are_the_walked_partition(self, k, n, capsys):
        # partition reads numtheory.orbit_summary; eigen_partition's arrays must agree
        assert main(["partition", "--k", str(k), "--n", str(n), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        part = numtheory.structure(n, k)
        sizes, counts = np.unique(part.sizes, return_counts=True)
        g1 = int(part.sizes.max())
        assert payload["g1"] == g1 and payload["blocks"] == part.sizes.size
        assert payload["size_histogram"] == {str(s): int(c) for s, c in zip(sizes, counts)}
        assert payload["self_conjugate_blocks"] == int(part.self_conjugate.sum())
        lower = int(part.sizes[part.sizes < g1].sum())
        assert payload["upsilon"] == str(Fraction(lower, part.n_prime))

    def test_n_above_cap_is_refused_before_factoring(self):
        # the gcd 10000000000000061 is prime: trial division took 8 s before the cap
        out = kcirc("partition", "--k", "10000000000000061", "--n", "20000000000000122",
                    timeout=5)
        assert out.returncode == 2
        assert f"exceeds the cap of {numtheory.N_CAP}" in out.stderr

    def test_largest_prime_gcd_below_the_cap(self):
        # 49999999999981 is the largest prime at most N_CAP / 2: the slowest gcd to factor
        out = kcirc("partition", "--k", "49999999999981", "--n", "99999999999962", timeout=15)
        assert out.returncode == 0, out.stderr
        assert "n'=2 k'=1 common_primes=49999999999981^1|n,49999999999981^1|k" in out.stdout

    def test_slowest_table_past_the_orbit_cap(self):
        # partition walks no orbit, so it answers past ORBIT_CAP; the safe prime
        # 99999999995927 = 2 * 49999999997963 + 1 factors the most by trial division
        out = kcirc("partition", "--k", "3", "--n", "99999999995927", timeout=60)
        assert out.returncode == 0, out.stderr
        assert "g1=49999999997963 blocks=3 upsilon=1/99999999995927" in out.stdout


class TestSpectrum:
    def test_delta_roots_of_unity(self, tmp_path):
        path = tmp_path / "cloud.csv"
        out = kcirc("spectrum", "--k", "2", "--n", "7", "--law", "delta",
                    "--out", str(path))
        assert out.returncode == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "re,im,block_index,root_index"
        assert len(lines) == 8
        pts = np.array([complex(float(ln.split(",")[0]), float(ln.split(",")[1]))
                        for ln in lines[1:]])
        assert np.allclose(np.abs(pts), 1 / np.sqrt(7))

    def test_csv_byte_identical_across_runs(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["spectrum", "--k", "3", "--n", "50", "--law", "gaussian",
                "--seed", "99", "--trials", "3"]
        assert kcirc(*args, "--out", str(p1)).returncode == 0
        assert kcirc(*args, "--out", str(p2)).returncode == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_svg_output(self, tmp_path):
        path = tmp_path / "cloud.svg"
        out = kcirc("spectrum", "--k", "2", "--n", "31", "--seed", "4",
                    "--format", "svg", "--out", str(path))
        assert out.returncode == 0
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<circle") == 31

    def test_preset(self, tmp_path):
        path = tmp_path / "preset.csv"
        out = kcirc("spectrum", "--preset", "cube_minus", "--out", str(path))
        assert out.returncode == 0
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 + 20 * 666

    def test_unwritable_path_is_io_error(self, tmp_path):
        out = kcirc("spectrum", "--k", "2", "--n", "7",
                    "--out", str(tmp_path / "missing" / "x.csv"))
        assert out.returncode == 3

    @pytest.mark.parametrize("n", ["1000000000000", "0"])
    def test_n_outside_range_is_usage_error(self, n):
        # refused before the n input entries are drawn
        out = kcirc("spectrum", "--k", "3", "--n", n, timeout=5)
        assert out.returncode == 2
        assert "cap" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("argv, peak", [
        # one point above the cap, n for CSV and n * trials for SVG; never run at the cap
        (["--n", str(SPECTRUM_N_CAP + 1)], "estimated peak memory 530 MB"),
        (["--n", "3517", "--trials", "853", "--format", "svg"],  # 3517 * 853 = cap + 1
         "estimated peak memory 530 MB"),
    ])
    def test_memory_caps_are_usage_errors(self, argv, peak, tmp_path):
        path = tmp_path / "cloud.out"
        out = kcirc("spectrum", "--k", "3", *argv, "--out", str(path), timeout=5)
        assert out.returncode == 2
        assert "spectrum cap" in out.stderr and peak in out.stderr
        assert "Traceback" not in out.stderr
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_zero_trials_is_usage_error(self, tmp_path, fmt):
        path = tmp_path / "cloud.out"
        out = kcirc("spectrum", "--k", "3", "--n", "10", "--trials", "0",
                    "--format", fmt, "--out", str(path), timeout=5)
        assert out.returncode == 2
        assert "--trials" in out.stderr
        assert not path.exists()

    @pytest.mark.parametrize("k, message", [("-1", "k must be at least 1"),
                                            ("10", "k reduces to 0 mod n")])
    def test_bad_k_refused_as_by_partition(self, k, message):
        for command in ("spectrum", "partition"):
            out = kcirc(command, "--k", k, "--n", "10")
            assert out.returncode == 2, command
            assert message in out.stderr, command

    def test_law_alias_gives_same_bytes(self, tmp_path):
        args = ["spectrum", "--k", "3", "--n", "20", "--seed", "5", "--trials", "2"]
        for law in ("normal", "gaussian"):
            assert kcirc(*args, "--law", law, "--out", str(tmp_path / law)).returncode == 0
        assert (tmp_path / "normal").read_bytes() == (tmp_path / "gaussian").read_bytes()

    def test_unknown_law_is_usage_error(self):
        out = kcirc("spectrum", "--k", "3", "--n", "20", "--law", "foo")
        assert out.returncode == 2
        assert "foo" in out.stderr

    def test_preset_conflicts_with_explicit_flags(self):
        out = kcirc("spectrum", "--preset", "ring_k2", "--k", "3")
        assert out.returncode == 2
        assert "conflicts" in out.stderr

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_file_and_stdout_bytes_agree(self, tmp_path, fmt):
        path = tmp_path / f"cloud.{fmt}"
        args = ["spectrum", "--k", "3", "--n", "40", "--seed", "5", "--trials", "3",
                "--format", fmt]
        assert kcirc(*args, "--out", str(path)).returncode == 0
        out = kcirc(*args)
        assert out.returncode == 0
        assert out.stdout == path.read_text()
        if fmt == "csv":
            assert out.stdout.count("re,im") == 1
            assert len(out.stdout.splitlines()) == 1 + 3 * 40

    def test_csv_memory_does_not_grow_with_trials(self, tmp_path):
        import tracemalloc

        def peak(trials):
            tracemalloc.start()
            try:
                assert main(["spectrum", "--k", "3", "--n", "20000",
                             "--trials", str(trials), "--out", str(tmp_path / "c.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # builds the cached structure of (n, k) outside the measurement
        assert peak(4) < 1.25 * peak(1)  # holding every trial's result measured 1.54


class TestLsd:
    def test_pass_run_writes_report(self, tmp_path):
        path = tmp_path / "report.json"
        out = kcirc("lsd", "--theorem", "3", "--k", "10", "--n", "101",
                    "--trials", "2", "--tol-radial", "0.5", "--out", str(path))
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("PASS")
        payload = json.loads(path.read_text())
        assert payload["pass"] is True
        assert payload["hypothesis"]["g"] == 2

    def test_hypothesis_violation_exits_2(self):
        out = kcirc("lsd", "--theorem", "3", "--k", "10", "--n", "100")
        assert out.returncode == 2
        assert "hypothesis error" in out.stderr

    def test_tolerance_failure_exits_1(self):
        out = kcirc("lsd", "--theorem", "3", "--k", "10", "--n", "101",
                    "--trials", "2", "--tol-radial", "1e-12")
        assert out.returncode == 1
        assert out.stdout.startswith("FAIL")

    def test_degenerate_circle_run(self, tmp_path):
        path = tmp_path / "band.json"
        out = kcirc("lsd", "--theorem", "2", "--k", "2", "--n", "6561",
                    "--trials", "2", "--out", str(path))
        assert out.returncode == 0, out.stderr
        payload = json.loads(path.read_text())
        assert payload["aggregates"]["band_mass_min"] >= 0.9

    def test_congruence_failure_message(self):
        # coprime pair where no power of k hits -1 mod n
        out = kcirc("lsd", "--theorem", "3", "--k", "3", "--n", "100")
        assert out.returncode == 2
        assert "k^g = -1" in out.stderr

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# roots-of-unity run\ntheorem=3\nk=10\nn=101\n"
                       "trials=2\ntol-radial=1e-12\n")
        out = kcirc("lsd", "--config", str(cfg))
        assert out.returncode == 1  # config's absurd tolerance fails
        out = kcirc("lsd", "--config", str(cfg), "--tol-radial", "0.9")
        assert out.returncode == 0  # explicit flag overrides the file

    def test_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("theorem=3\nk=10\nn=101\nbogus=1\n")
        out = kcirc("lsd", "--config", str(cfg))
        assert out.returncode == 2
        assert "bogus" in out.stderr

    def test_config_run_matches_flag_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theorem=3\nk=10\nn=101\ntrials=2\nseed=77\ntol_radial=0.9\n")
        p1, p2 = tmp_path / "config.json", tmp_path / "flags.json"
        assert kcirc("lsd", "--config", str(cfg), "--out", str(p1)).returncode == 0
        assert kcirc("lsd", "--theorem", "3", "--k", "10", "--n", "101", "--trials", "2",
                     "--seed", "77", "--tol-radial", "0.9",
                     "--out", str(p2)).returncode == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_bad_number_names_the_flag(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("theorem=3\nk=abc\nn=101\n")
        out = kcirc("lsd", "--config", str(cfg))
        assert out.returncode == 2
        assert "--k" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("argv", [
        ["--theorem", "2", "--k", "2", "--n", "729", "--tol-radial", "0.1"],
        ["--theorem", "2", "--k", "2", "--n", "729", "--tol-angular", "0.1"],
        ["--theorem", "2", "--k", "2", "--n", "729", "--g", "7"],
        ["--theorem", "3", "--k", "10", "--n", "101", "--tol-band", "0.5"],
        ["--theorem", "3", "--k", "10", "--n", "101", "--radius", "0.7"],
        ["--theorem", "4", "--k", "10", "--n", "99", "--epsilon", "0.1"],
    ])
    def test_inapplicable_flag_is_usage_error(self, argv, capsys):
        assert main(["lsd", *argv]) == 2
        assert f"{argv[-2].lstrip('-')} does not apply" in capsys.readouterr().err

    def test_huge_g_is_usage_error(self):
        # 10^4 = 1 (mod 9999), so this g passes the congruence; it must be
        # refused before 10**g is formed, not hang while that number grows
        out = kcirc("lsd", "--theorem", "4", "--k", "10", "--n", "9999",
                    "--g", "1000000000", timeout=5)
        assert out.returncode == 2
        assert "--g" in out.stderr
        assert "Traceback" not in out.stderr

    def test_n_above_experiment_cap_is_usage_error(self):
        # gcd(2, n) = 1, so only the cap, checked before the hypothesis work
        # walks the orbits of n, stops this run
        out = kcirc("lsd", "--theorem", "2", "--k", "2", "--n", "1000000000001",
                    timeout=5)
        assert out.returncode == 2
        assert "experiment cap" in out.stderr
        assert "Traceback" not in out.stderr

    def test_missing_required_values(self):
        out = kcirc("lsd", "--theorem", "3")
        assert out.returncode == 2

    @pytest.mark.parametrize("theorem", ["2", "3", "4"])
    @pytest.mark.parametrize("k, n", [("3", "-10"), ("3", "0"), ("3", "1"), ("3", "200001"),
                                      ("0", "101"), ("-3", "101"), ("101", "101"),
                                      # k = 10 (mod 101): k^2 = -1, and k^2 overflows a float
                                      pytest.param(str(10 + 101 * 10**200), "101", id="huge-101")])
    def test_k_and_n_out_of_range_name_the_bound(self, theorem, k, n, capsys):
        # one range check for every kind, ahead of its congruence or gcd test
        assert main(["lsd", "--theorem", theorem, "--k", k, "--n", n]) == 2
        err = capsys.readouterr().err
        bound = ("n = 200001 exceeds the experiment cap" if n == "200001"
                 else f"need k < n, got n={n}, k mod n={int(k) % int(n)}" if int(k) >= int(n) >= 2
                 else f"need n >= 2 and k >= 1, got n={n}, k={k}")
        assert err.startswith(f"error: {bound}")

    @pytest.mark.parametrize("flags, message", [
        (["--radius", "0"], "degenerate-circle law needs a radius > 0"),
        (["--radius", "-1"], "degenerate-circle law needs a radius > 0"),
        (["--epsilon", "-1"], "epsilon must be nonnegative"),
        (["--radius", "0", "--epsilon", "-1"], "degenerate-circle law needs a radius > 0"),
    ])
    def test_bad_band_is_usage_error(self, flags, message, capsys):
        assert main(["lsd", "--theorem", "2", "--k", "2", "--n", "729", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_theorem_4_accepts_n2(self, tmp_path):
        # 1 = 1 + 0 * 2, as theorem 3 reads 1 = -1 + 1 * 2
        path = tmp_path / "n2.json"
        out = kcirc("lsd", "--theorem", "4", "--k", "1", "--n", "2", "--trials", "2",
                    "--out", str(path))
        assert out.returncode in (0, 1), out.stderr
        assert json.loads(path.read_text())["hypothesis"]["s"] == 0


class TestGumbel:
    def test_small_pass(self, tmp_path):
        path = tmp_path / "gumbel.json"
        csv_path = tmp_path / "radii.csv"
        out = kcirc("gumbel", "--kk", "20", "--trials", "30",
                    "--tol-gumbel", "0.9", "--tol-reference", "0.9",
                    "--out", str(path), "--csv", str(csv_path))
        assert out.returncode == 0, out.stderr
        payload = json.loads(path.read_text())
        assert payload["config"]["n"] == 401
        assert payload["hypothesis"]["q"] == 100
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "trial,seed,sp,standardized"
        assert len(lines) == 31
        float(lines[1].split(",")[3])  # standardized column parses

    def test_csv_dash_is_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["gumbel", "--kk", "5", "--trials", "3"]
        code = main([*argv, "--csv", "radii.csv"])
        capsys.readouterr()
        assert main([*argv, "--csv", "-"]) == code
        radii, out = (tmp_path / "radii.csv").read_text(), capsys.readouterr().out
        assert out.startswith(radii) and out[len(radii):].count("\n") == 1  # the verdict
        assert [path.name for path in tmp_path.iterdir()] == ["radii.csv"]

    @pytest.mark.parametrize("kk", ["0", "2", "448"])
    def test_kk_outside_range_is_usage_error(self, kk, capsys):
        # k = 2 leaves q = n // 4 = 1, and k = 448 puts n = k^2 + 1 above the cap
        assert main(["gumbel", "--kk", kk, "--trials", "2"]) == 2
        err = capsys.readouterr().err
        assert "--kk must be between 3 and 447" in err
        assert err.endswith(f"got {kk}\n")


class TestReportDigests:
    """sha256 of the --out report of small lsd and gumbel runs. A change that
    alters report bytes must edit this table and say so."""

    @pytest.mark.parametrize("argv, code, digest", [
        (["lsd", "--theorem", "2", "--k", "2", "--n", "6561", "--trials", "2",
          "--radius", "0.75", "--epsilon", "0.06"], 0,
         "05bf2a6ee78c9941a619fa2ae496ba49c956fa4852a266ba1ddeacae7b3645c4"),
        (["lsd", "--theorem", "3", "--k", "100", "--n", "10001", "--trials", "2"], 0,
         "ac77277b33c61b9dc517fd960f3910a2de926661e96c6c274fcbdad9dfb43aea"),
        (["lsd", "--theorem", "3", "--k", "5", "--n", "126", "--trials", "2"], 1,  # g = 3
         "37421be99b6aac57da1098e64bbaa024f4d6636c38b3084b8d546c1e17f7a74d"),
        (["lsd", "--theorem", "4", "--k", "100", "--n", "9999", "--trials", "2",
          "--law", "exp"], 0,
         "5e148f28050bf517c16974dfaeb4563c672b014e0f63bf97c568f32e4afbce59"),
        (["lsd", "--theorem", "4", "--k", "11", "--n", "665", "--trials", "1"], 0,  # g = 3
         "20a2aee47118a8a24d29f00849677f6855e79dd0833f89f17e7f79d1ecf2138e"),
        (["gumbel", "--kk", "20", "--trials", "50"], 1,
         "f88bd2a8ea82b71f5e3fc58085c049e6f362e6ba0e381544871e6fe1435dc1dd"),
    ], ids=["lsd2", "lsd3", "lsd3_g3", "lsd4_exp", "lsd4_g3", "gumbel"])
    def test_report_bytes(self, argv, code, digest, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main([*argv, "--out", str(path)]) == code
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestVerify:
    def test_clean_sweep(self):
        out = kcirc("verify", "--nmax", "8", "--samples", "2")
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("PASS")
        assert "pairs=28" in out.stdout

    def test_single_pair(self):
        out = kcirc("verify", "--nmax", "2", "--samples", "1")
        assert out.returncode == 0
        assert "pairs=1" in out.stdout

    def test_fuzz_exits_1(self):
        out = kcirc("verify", "--nmax", "6", "--samples", "1", "--fuzz", "1e-3")
        assert out.returncode == 1
        assert "FAIL" in out.stdout


class TestFiniteFloatFlags:
    @pytest.mark.parametrize("argv, config", [
        (["lsd", "--theorem", "3", "--k", "3", "--n", "10", "--tol-radial", "nan"], None),
        (["lsd", "--theorem", "4", "--k", "10", "--n", "99", "--tol-angular", "inf"], None),
        (["lsd", "--theorem", "2", "--k", "2", "--n", "729", "--tol-band", "nan"], None),
        (["lsd", "--theorem", "2", "--k", "2", "--n", "729", "--radius", "nan"], None),
        (["lsd", "--theorem", "2", "--k", "2", "--n", "729", "--epsilon", "nan"], None),
        (["gumbel", "--kk", "4", "--tol-gumbel", "nan"], None),
        (["gumbel", "--kk", "4", "--tol-reference", "inf"], None),
        (["verify", "--nmax", "4", "--fuzz", "nan"], None),
        (["verify", "--nmax", "4", "--fuzz", "inf"], None),
        (["lsd", "--theorem", "3", "--k", "3", "--n", "10"], "tol_radial=nan"),
        (["gumbel", "--kk", "4"], "tol-gumbel=-inf"),
    ])
    def test_non_finite_value_names_the_flag(self, argv, config, tmp_path, capsys):
        if config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config + "\n")
            argv = [*argv, "--config", str(cfg)]
            flag = "--" + config.split("=")[0].replace("_", "-")
        else:
            flag = argv[-2]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: expected a finite number" in capsys.readouterr().err


class TestOneOrbitWalkPerCommand:
    def test_structure_cache_is_bound_in_spectral(self):
        caches = [v for v in vars(spectral).values() if hasattr(v, "cache_info")]
        assert caches == [numtheory.structure]

    @pytest.mark.parametrize("argv, expected", [
        (["lsd", "--theorem", "3", "--k", "3", "--n", "10", "--trials", "2"], 1),
        (["gumbel", "--kk", "4", "--trials", "8"], 1),
        (["partition", "--k", "3", "--n", "10"], 0),  # it reads numtheory.orbit_summary
        (["partition", "--k", "12", "--n", "18", "--json"], 0),
        # k = 13 walks the orbits of k mod n = 3 (lsd refuses k >= n outright)
        (["spectrum", "--k", "13", "--n", "10", "--trials", "2"], 1),
        # 15 pairs, and 20 samples a pair solved in 3 stacks, one stack after another
        (["verify", "--nmax", "6", "--samples", "20"], 15),
    ])
    def test_command_walks_orbits_once(self, argv, expected, monkeypatch, capsys):
        original = numtheory.eigen_partition
        walks = []

        def counting(params):
            walks.append((params.n, params.k))
            return original(params)

        # every module binding, so a walk outside the cached accessor counts too
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "kcirculant" \
                    and getattr(mod, "eigen_partition", None) is original:
                monkeypatch.setattr(mod, "eigen_partition", counting)
        numtheory.structure.cache_clear()
        assert main(argv) in (0, 1)
        assert len(walks) == len(set(walks)) == expected

    def test_structure_cache_keeps_one_partition(self):
        assert numtheory.structure.cache_info().maxsize == 1
        assert isinstance(numtheory.structure(10, 3), numtheory.EigenPartition)


def _exit_text(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that ends the program."""
    with pytest.raises(SystemExit) as stop:
        parse(argv)
    return (stop.value.code, *capsys.readouterr())


COMMANDS = ["partition", "spectrum", "lsd", "gumbel", "verify", "tail"]  # in help order


class TestOneSubparserPerCommand:
    # every subcommand's help and one usage error; the full parser's own cases
    @pytest.mark.parametrize("argv", [
        *[[name, "--help"] for name in COMMANDS],
        ["partition", "--k", "3"],
        ["spectrum", "--format", "png"],
        ["lsd", "--k", "3", "--n", "10"],
        ["gumbel", "--trials", "8"],
        ["verify", "--nmax"],
        ["tail"],
        ["partition", "--k", "3", "--n", "10", "extra"],
        ["lsd", "--theorem", "3", "--k", "3", "--n", "10", "--bogus", "1"],
        ["--help"], [], ["bogus"],
    ])
    def test_same_bytes_and_exit_code_as_full_parser(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        full = _exit_text(build_parser().parse_args, argv, capsys)
        command = argv[0] if argv and argv[0] in COMMANDS else None
        assert _exit_text(build_parser(command).parse_args, argv, capsys) == full
        assert _exit_text(main, argv, capsys) == full
        assert full[0] in (0, 2) and full[1] + full[2]

    @pytest.mark.parametrize("argv", [
        ["lsd", "--theorem", "3", "--k", "10", "--n", "101", "--config"],
        ["gumbel", "--kk", "5", "--config"],
    ])
    def test_config_without_value_is_the_subcommand_error(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = _exit_text(main, argv, capsys)
        assert (code, out, err) == _exit_text(build_parser().parse_args, argv, capsys)
        assert code == 2 and err.startswith(f"usage: kcirc {argv[0]} ")
        assert "argument --config: expected one argument" in err

    @pytest.mark.parametrize("argv, built", [
        (["lsd", "--theorem", "3", "--k", "3", "--n", "10", "--trials", "2"], ["lsd"]),
        (["partition", "--k", "3", "--n", "10"], ["partition"]),
        (["tail", "--x", "1"], ["tail"]),
        (["--help"], COMMANDS),
    ])
    def test_command_builds_only_its_subparser(self, argv, built, monkeypatch, capsys):
        made = []
        original = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            made.append(name)
            return original(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        try:
            code = main(argv)
        except SystemExit as stop:  # --help
            code = stop.code
        assert code in (0, 1)
        assert made == built


TAIL_TABLE = """\
           x             tail       asymptotic      ratio
           0  1.000000000e+00                -          -
       1e-12  1.000000000e+00  1.772450306e-03   564.1907
       1e-06  9.999863389e-01  5.593792436e-02    17.8767
         0.5  4.443425236e-01  3.623533586e-01     1.2263
           1  2.797317636e-01  2.398755439e-01     1.1662
           2  1.396674740e-01  1.245839633e-01     1.1211
          25  1.864877345e-04  1.799347809e-04     1.0364
         400  3.398852782e-17  3.367523678e-17     1.0093
       10000  2.457484747e-86  2.452892728e-86     1.0019
      120000 4.271318000e-300 4.269008373e-300     1.0005
      138000 6.768699348e-322 6.768699348e-322     1.0000
      150000  0.000000000e+00  0.000000000e+00          -
      1e+300  0.000000000e+00  0.000000000e+00          -
"""


class TestTail:
    def test_table_values(self):
        out = kcirc("tail", "--x", "1")
        assert out.returncode == 0
        assert "2.797317636e-01" in out.stdout
        assert "2.398755439e-01" in out.stdout
        assert "1.166" in out.stdout

    def test_zero_prints_dash(self):
        out = kcirc("tail", "--x", "0,400")
        assert out.returncode == 0
        lines = out.stdout.strip().split("\n")
        assert any("-" in ln.split()[-1] for ln in lines[1:2])
        ratio_400 = float(lines[-1].split()[-1])
        assert abs(ratio_400 - 1.0) < 0.01

    def test_frozen_table(self, capsys):
        # 1.38e5 reads a subnormal tail; at 1.5e5 and 1e300 both columns are 0,
        # where the ratio reads "-" as it does at x = 0
        assert main(["tail", "--x", "0,1e-12,1e-6,0.5,1,2,25,400,1e4,1.2e5,1.38e5,1.5e5,1e300"]) == 0
        assert capsys.readouterr().out == TAIL_TABLE

    def test_empty_is_usage_error(self):
        out = kcirc("tail", "--x", " ")
        assert out.returncode == 2

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_non_finite_is_usage_error(self, x):
        out = kcirc("tail", "--x", f"1,{x}")
        assert out.returncode == 2
        assert x in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("x", ["abc", "-1"])
    def test_bad_value_names_the_flag(self, x, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tail", "--x", f"1,{x}"])
        assert exc.value.code == 2
        assert "argument --x: expected" in capsys.readouterr().err


class TestTwoProcessesWriteEqualBytes:
    def test_lsd_report_bytes_stable(self, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["lsd", "--theorem", "3", "--k", "10", "--n", "101",
                "--trials", "4", "--seed", "77", "--tol-radial", "0.9"]
        # two fresh processes, each building its own structure cache
        assert kcirc(*args, "--out", str(p1)).returncode == 0
        assert kcirc(*args, "--out", str(p2)).returncode == 0
        assert p1.read_bytes() == p2.read_bytes()


# Runs the command given as arguments in a fresh process and prints which
# scipy modules it has loaded.
_SCIPY_PROBE = """\
import contextlib, io, json, sys
from kcirculant.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _scipy_modules_after(*argv):
    out = run_python("-c", _SCIPY_PROBE, *argv)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


class TestScipyLoadedOnDemand:
    def test_import_loads_no_scipy(self):
        out = run_python("-c", "import sys, kcirculant, kcirculant.cli; "
                               "print('scipy' in sys.modules)")
        assert out.returncode == 0, out.stderr
        assert out.stdout == "False\n"

    @pytest.mark.parametrize("argv", [
        ["partition", "--k", "3", "--n", "10", "--json"],
        ["spectrum", "--k", "2", "--n", "9"],
        ["gumbel", "--kk", "4", "--trials", "8"],
        ["verify", "--nmax", "3", "--samples", "1"],
        ["lsd", "--theorem", "3", "--k", "3", "--n", "10", "--trials", "2"],
        ["tail", "--x", "1"],
        ["lsd", "--theorem", "3", "--k", "2", "--n", "9", "--g", "3", "--trials", "1"],
    ])
    def test_command_loads_no_scipy(self, argv):
        assert _scipy_modules_after(*argv) == []


class TestPackageSurface:
    def test_all_is_the_union_of_the_module_lists(self):
        modules = [numtheory, spectral, limits, extremes, montecarlo]
        union = [name for module in modules for name in module.__all__]
        assert sorted(kcirculant.__all__) == sorted(union)
        assert all(hasattr(kcirculant, name) for name in union)
        # test oracles live in tests/helpers.py; the rest duplicated kept code
        gone = ["dft_naive", "DetProbe", "det_probe_oracle", "block_products",
                "lower_order_count_ie", "gcd_power_bound", "lsd_sample",
                "export_points_csv", "orbit", "upsilon", "radial_tail",
                "lsd_radial_cdf", "spectral_radius", "_jsonify", "_capped_n_prime",
                "_read_only", "multiplicative_order", "_k1e"]
        assert [name for name in gone
                if any(hasattr(owner, name) for owner in [kcirculant, *modules])] == []
