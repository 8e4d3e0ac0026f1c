import json

from helpers import kcirc


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


class TestSpectrum:
    def test_delta_roots_of_unity(self, tmp_path):
        path = tmp_path / "cloud.csv"
        out = kcirc("spectrum", "--k", "2", "--n", "7", "--law", "delta",
                    "--out", str(path))
        assert out.returncode == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "re,im,block_index,root_index"
        assert len(lines) == 8
        import numpy as np
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

    def test_preset_conflicts_with_explicit_flags(self):
        out = kcirc("spectrum", "--preset", "ring_k2", "--k", "3")
        assert out.returncode == 2
        assert "conflicts" in out.stderr


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

    def test_huge_g_is_usage_error(self):
        # 10^4 = 1 (mod 9999), so this g passes the congruence; it must be
        # refused before 10**g is formed, not hang while that number grows
        out = kcirc("lsd", "--theorem", "4", "--k", "10", "--n", "9999",
                    "--g", "1000000000", timeout=5)
        assert out.returncode == 2
        assert "--g" in out.stderr
        assert "Traceback" not in out.stderr

    def test_missing_required_values(self):
        out = kcirc("lsd", "--theorem", "3")
        assert out.returncode == 2


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

    def test_empty_is_usage_error(self):
        out = kcirc("tail", "--x", " ")
        assert out.returncode == 2


class TestReproducibilityAcrossThreads:
    def test_lsd_report_bytes_stable(self, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["lsd", "--theorem", "3", "--k", "10", "--n", "101",
                "--trials", "4", "--seed", "77", "--tol-radial", "0.9"]
        # two fresh processes, each building its own structure cache
        assert kcirc(*args, "--out", str(p1)).returncode == 0
        assert kcirc(*args, "--out", str(p2)).returncode == 0
        assert p1.read_bytes() == p2.read_bytes()
