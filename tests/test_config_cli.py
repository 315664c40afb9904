import os

import numpy as np
import pytest

from lyapcert.cli import main
from lyapcert.config import parse_config, serialize
from lyapcert.errors import ParseError, ValidationError
from lyapcert.io import load_matrix, read_csv, save_matrix

MINIMAL = """
[system]
name = finite_dim
A = 0, 1; -1, 0
B = 1; 0

[damping]
kind = clamp
"""

SCALAR_SAT = """
[system]
name = finite_dim
A = 0
B = 1

[damping]
kind = clamp
s0 = 1.0

[sim]
dt = 1e-3
t_end = 6.0
error_control = off
z0 = eigvec 0 5.0

[analysis]
certificate = exp
fits = exponential
"""

KDV_SWEEP = """
[system]
name = kdv
N = 32
L = 6.283185307179586
a_profile = constant 1.0

[damping]
kind = clamp

[sim]
dt = 1e-3
t_end = 20.0
error_control = off

[analysis]
radii = 1, 5
"""


class TestGrammar:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.get("sim", "dt") == 1e-3
        assert cfg.get("sim", "error_control") == "on"

    def test_negative_grid_rejected(self):
        bad = KDV_SWEEP.replace("N = 32", "N = -4")
        with pytest.raises(ValidationError) as exc:
            parse_config(bad)
        assert "N" in str(exc.value) and ">= 16" in str(exc.value)

    def test_violations_aggregated(self):
        bad = KDV_SWEEP.replace("N = 32", "N = -4").replace("dt = 1e-3", "dt = -1")
        with pytest.raises(ValidationError) as exc:
            parse_config(bad)
        assert len(exc.value.violations) == 2

    def test_syntax_errors(self):
        with pytest.raises(ParseError):
            parse_config("[system\nname = kdv")
        with pytest.raises(ParseError):
            parse_config("[system]\njust some words\n")
        with pytest.raises(ParseError):
            parse_config("name = kdv\n")          # assignment before a section
        with pytest.raises(ParseError):
            parse_config("[warp_drive]\n")

    def test_malformed_values_rejected_with_config_errors(self):
        # each of these once escaped parse_config as a bare numpy or index error
        for text in ("[system]\nname = ;", "[analysis]\ncertificate = 1; 2",
                     "[system]\nname = kdv\nN = 16\na_profile =",
                     KDV_SWEEP.replace("t_end = 20.0", "t_end = inf")):
            with pytest.raises(ValidationError):
                parse_config(text)
        with pytest.raises(ParseError) as exc:
            parse_config("[system]\nname = finite_dim\nA = 0, x; 1, 0")
        assert "line 3" in str(exc.value)

    def test_comments_and_blanks(self):
        cfg = parse_config(MINIMAL + "\n# trailing comment\n\n")
        assert cfg.get("system", "name") == "finite_dim"

    def test_round_trip(self):
        cfg = parse_config(KDV_SWEEP)
        text = serialize(cfg)
        again = parse_config(text)
        assert serialize(again) == text

    def test_docs_sweep_config_round_trips(self):
        import pathlib
        src = pathlib.Path(__file__).resolve().parent.parent / "docs" / "kdv_sweep.cfg"
        cfg = parse_config(src.read_text())
        assert cfg.get("analysis", "radii") == [1, 5, 25]
        assert serialize(parse_config(serialize(cfg))) == serialize(cfg)


class TestMatrixFormat:
    def test_round_trip(self, tmp_path):
        M = np.array([[1.0, -0.5], [0.3333333333333333, 2e-7]])
        path = tmp_path / "m.mat"
        save_matrix(path, M)
        first_line = path.read_text().splitlines()[0]
        assert first_line == "2 2"
        assert np.array_equal(load_matrix(path), M)


def run(tmp_path, sub, config_text, name="run.cfg", out=None, seed=0):
    cfgpath = tmp_path / name
    if not cfgpath.exists():
        cfgpath.write_text(config_text)
    args = [sub, "--config", str(cfgpath), "--out", str(out or tmp_path),
            "--seed", str(seed)]
    return main(args)


class TestSubcommands:
    def test_simulate_columns_and_saturated_row(self, tmp_path):
        assert run(tmp_path, "simulate", SCALAR_SAT) == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "norm_H", "norm_DA", "V", "damping_power"]
        assert all(len(r) == 5 for r in rows)
        t4 = min(rows, key=lambda r: abs(float(r[0]) - 4.0))
        assert abs(float(t4[1]) - 1.0) <= 1e-3

    def test_certify_no_input_decay(self, tmp_path):
        cfg = """
[system]
name = finite_dim
A = -1
B = 0

[damping]
kind = linear

[analysis]
certificate = exp
"""
        assert run(tmp_path, "certify", cfg) == 0
        P = load_matrix(tmp_path / "certificate_P.mat")
        assert np.allclose(P, [[0.5]], atol=1e-12)
        text = (tmp_path / "certificate.txt").read_text()
        assert "M = 0.0" in text

    def test_fit_decay_reads_trajectory(self, tmp_path):
        assert run(tmp_path, "simulate", SCALAR_SAT) == 0
        assert run(tmp_path, "fit-decay", SCALAR_SAT) == 0
        header, rows = read_csv(tmp_path / "decay_fit.csv")
        assert header == ["model", "rate", "prefactor", "t_lo", "t_hi", "r_squared"]
        assert rows[0][0] == "exponential"

    def test_check_damping(self, tmp_path):
        assert run(tmp_path, "check-damping", MINIMAL) == 0
        header, rows = read_csv(tmp_path / "damping_report.csv")
        assert header == ["item", "margin", "pass"]
        assert [r[2] for r in rows] == ["True", "True", "True"]

    def test_sweep(self, tmp_path):
        assert run(tmp_path, "sweep", KDV_SWEEP) == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == ["r", "mu", "K", "r_squared"]
        assert len(rows) == 2

    def test_verify_roundtrip(self, tmp_path):
        assert run(tmp_path, "simulate", SCALAR_SAT) == 0
        assert run(tmp_path, "verify", SCALAR_SAT) == 0
        header, rows = read_csv(tmp_path / "verification.csv")
        assert header == ["check", "max_violation", "tolerance", "pass", "samples"]
        assert rows[0][3] == "True"

    def test_verify_missing_input(self, tmp_path, capsys):
        rc = run(tmp_path, "verify", SCALAR_SAT)
        assert rc == 4
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1].startswith("ERROR MissingInput")

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        rc = run(tmp_path, "simulate", KDV_SWEEP.replace("N = 32", "N = 4"))
        assert rc == 3
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1].startswith("ERROR ValidationError")

    def test_report_collates_without_recompute(self, tmp_path):
        assert run(tmp_path, "simulate", SCALAR_SAT) == 0
        assert run(tmp_path, "fit-decay", SCALAR_SAT) == 0
        assert run(tmp_path, "report", SCALAR_SAT) == 0
        report1 = (tmp_path / "report.txt").read_bytes()
        plots1 = (tmp_path / "plots.gp").read_bytes()
        (tmp_path / "report.txt").unlink()
        (tmp_path / "plots.gp").unlink()
        assert run(tmp_path, "report", SCALAR_SAT) == 0
        assert (tmp_path / "report.txt").read_bytes() == report1
        assert (tmp_path / "plots.gp").read_bytes() == plots1
        assert b"trajectory.csv" in plots1

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        envdir = tmp_path / "envout"
        monkeypatch.setenv("LYAPCERT_OUT_DIR", str(envdir))
        cfgpath = tmp_path / "run.cfg"
        cfgpath.write_text(SCALAR_SAT)
        assert main(["simulate", "--config", str(cfgpath)]) == 0
        assert (envdir / "trajectory.csv").exists()

    def test_manifest_written(self, tmp_path):
        assert run(tmp_path, "simulate", SCALAR_SAT) == 0
        text = (tmp_path / "manifest.txt").read_text()
        assert "config_hash = " in text and "seed = 0" in text
        assert "file = trajectory.csv" in text

    def test_certify_exports_system_matrices(self, tmp_path):
        assert run(tmp_path, "certify", SCALAR_SAT) == 0
        assert np.array_equal(load_matrix(tmp_path / "system_A.mat"), [[0.0]])
        assert np.array_equal(load_matrix(tmp_path / "system_B.mat"), [[1.0]])

    def test_verify_consumes_exported_certificate(self, tmp_path):
        assert run(tmp_path, "simulate", SCALAR_SAT) == 0
        assert run(tmp_path, "certify", SCALAR_SAT) == 0
        # corrupt the exported decrease constant: verify must pick it up
        cert_path = tmp_path / "certificate.txt"
        text = cert_path.read_text().replace("C = 1.0", "C = 1000.0")
        cert_path.write_text(text)
        assert run(tmp_path, "verify", SCALAR_SAT) == 0
        _, rows = read_csv(tmp_path / "verification.csv")
        assert rows[0][3] == "False"      # huge C makes the decrease test fail

    def test_matrix_and_initial_state_from_files(self, tmp_path):
        save_matrix(tmp_path / "A.mat", np.array([[0.0, 1.0], [-1.0, 0.0]]))
        save_matrix(tmp_path / "B.mat", np.array([[1.0], [0.0]]))
        save_matrix(tmp_path / "z0.vec", np.array([[2.0], [0.0]]))
        cfg = f"""
[system]
name = finite_dim
A_file = A.mat
B_file = B.mat

[damping]
kind = clamp

[sim]
dt = 1e-2
t_end = 1.0
error_control = off
z0 = file z0.vec
"""
        cfgpath = tmp_path / "files.cfg"
        cfgpath.write_text(cfg)
        rc = main(["simulate", "--config", str(cfgpath), "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert abs(float(rows[0][1]) - 2.0) < 1e-12

    def test_empty_matrix_file_reported(self, tmp_path, capsys):
        (tmp_path / "A.mat").write_text("")
        save_matrix(tmp_path / "B.mat", np.array([[1.0], [0.0]]))
        cfg = MINIMAL.replace("A = 0, 1; -1, 0", "A_file = A.mat") + """
[sim]
dt = 1e-2
t_end = 1.0
error_control = off
"""
        rc = run(tmp_path, "simulate", cfg)
        out = capsys.readouterr().out.strip().splitlines()
        assert rc != 0
        assert out[-1].startswith("ERROR ValueError:") and "A.mat" in out[-1]

    def test_certificate_records_config_hash(self, tmp_path):
        assert run(tmp_path, "certify", SCALAR_SAT) == 0
        lines = (tmp_path / "certificate.txt").read_text().splitlines()
        hashes = [ln for ln in lines if ln.startswith("config_hash = sha256:")]
        assert len(hashes) == 1 and len(hashes[0]) == len("config_hash = sha256:") + 64
        # a comment or a blank line does not change the config
        assert run(tmp_path, "certify", "# note\n" + SCALAR_SAT + "\n",
                   name="commented.cfg") == 0
        assert hashes[0] in (tmp_path / "certificate.txt").read_text().splitlines()

    def test_verify_refuses_certificate_of_other_config(self, tmp_path, capsys):
        assert run(tmp_path, "certify", SCALAR_SAT) == 0
        other = SCALAR_SAT.replace("s0 = 1.0", "s0 = 2.0")
        assert other != SCALAR_SAT
        assert run(tmp_path, "simulate", other, name="other.cfg") == 0
        capsys.readouterr()
        rc = run(tmp_path, "verify", other, name="other.cfg")
        assert rc != 0
        line = last_line(capsys)
        assert line.startswith("ERROR StaleCertificate:") and "certificate.txt" in line
        assert not (tmp_path / "verification.csv").exists()

    def test_certificate_without_C_reported(self, tmp_path, capsys):
        assert run(tmp_path, "simulate", SCALAR_SAT) == 0
        assert run(tmp_path, "certify", SCALAR_SAT) == 0
        cert_path = tmp_path / "certificate.txt"
        lines = cert_path.read_text().splitlines()
        cert_path.write_text("\n".join(ln for ln in lines
                                       if not ln.startswith("C = ")) + "\n")
        capsys.readouterr()
        rc = run(tmp_path, "verify", SCALAR_SAT)
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 4
        assert out[-1].startswith("ERROR MissingInput:") and "'C'" in out[-1]


FILES_CFG = """
[system]
name = finite_dim
A_file = A.mat
B_file = B.mat

[damping]
kind = clamp

[sim]
dt = 1e-2
t_end = 1.0
error_control = off
z0 = file z0.vec
"""


def last_line(capsys):
    return capsys.readouterr().out.strip().splitlines()[-1]


class TestMalformedInputs:
    """Each malformed input ends in a nonzero exit with the ERROR line last,
    naming the file or the config key at fault."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "A.mat").write_text("2 2\n0 1\n-1 0\n")
        (tmp_path / "B.mat").write_text("2 1\n1\n0\n")
        (tmp_path / "z0.vec").write_text("2 1\n2\n0\n")
        return tmp_path

    def test_well_formed_files_run(self, files):
        assert run(files, "simulate", FILES_CFG) == 0

    def test_non_numeric_entry(self, files, capsys):
        (files / "A.mat").write_text("2 2\n0 1\n-1 x\n")
        assert run(files, "simulate", FILES_CFG) != 0
        line = last_line(capsys)
        assert line.startswith("ERROR ValueError:") and "A.mat" in line and "'x'" in line

    def test_non_square_A(self, files, capsys):
        (files / "A.mat").write_text("2 3\n0 1 0\n-1 0 0\n")
        assert run(files, "simulate", FILES_CFG) == 3
        line = last_line(capsys)
        assert line.startswith("ERROR ValidationError:") and "[system] A_file" in line

    def test_B_rows_differ_from_A(self, files, capsys):
        (files / "B.mat").write_text("3 1\n1\n0\n0\n")
        assert run(files, "simulate", FILES_CFG) == 3
        line = last_line(capsys)
        assert line.startswith("ERROR ValidationError:") and "[system] B_file" in line

    def test_z0_wrong_length(self, files, capsys):
        (files / "z0.vec").write_text("3 1\n2\n0\n1\n")
        assert run(files, "simulate", FILES_CFG) == 3
        line = last_line(capsys)
        assert line.startswith("ERROR ValidationError:") and "[sim] z0" in line

    def test_directory_as_matrix_file(self, files, capsys):
        assert run(files, "simulate", FILES_CFG.replace("A_file = A.mat", "A_file = .")) != 0
        assert last_line(capsys).startswith("ERROR IsADirectoryError:")

    def test_non_dissipative_A_without_input(self, files, capsys):
        # B = 0 skips the controllability gate, not the dissipativity gate
        (files / "A.mat").write_text("2 2\n0.5 1\n-1 0\n")
        (files / "B.mat").write_text("2 1\n0\n0\n")
        assert run(files, "simulate", FILES_CFG) == 5
        assert last_line(capsys).startswith("ERROR NotDissipative:")

    @pytest.mark.parametrize("section, key, value", [
        ("damping", "C1", "nan"), ("damping", "C2", "inf"), ("damping", "c", "nan"),
        ("damping", "verify_dim", "2.5"), ("damping", "verify_trials", "x"),
        ("analysis", "r", "nan"), ("analysis", "gamma", "nan"), ("analysis", "c_S", "nan"),
        ("analysis", "C_theta", "inf"), ("sim", "z0", "eigvec 0 nan"),
        ("system", "A", "0, 1; -1, nan"), ("sim", "local_error_target", "x"),
        ("sim", "local_error_target", "nan"), ("sim", "local_error_target", "0"),
        ("analysis", "window_lo", "x"), ("analysis", "window_hi", "inf")])
    def test_non_finite_or_non_numeric_value(self, files, capsys, section, key, value):
        text = FILES_CFG + f"\n[{section}]\n{key} = {value}\n"
        assert run(files, "simulate", text) == 3
        line = last_line(capsys)
        assert line.startswith("ERROR ValidationError:") and f"[{section}] {key}:" in line

    def test_empty_fit_window(self, files, capsys):
        text = FILES_CFG + "\n[analysis]\nwindow_lo = 2.0\nwindow_hi = 1.0\n"
        assert run(files, "fit-decay", text) == 3
        line = last_line(capsys)
        assert line.startswith("ERROR ValidationError:") and "[analysis] window_hi:" in line

    @pytest.mark.parametrize("profile", ["constant x", "constant nan",
                                         "indicator 0.2 x 1", "indicator 0.2 0.8 inf"])
    def test_non_numeric_profile(self, tmp_path, capsys, profile):
        text = KDV_SWEEP.replace("a_profile = constant 1.0", f"a_profile = {profile}")
        assert run(tmp_path, "simulate", text) == 3
        assert "[system] a_profile:" in last_line(capsys)

    @pytest.mark.parametrize("name, content", [("A.mat", "2 2\n0 1\n-1 nan\n"),
                                               ("B.mat", "2 1\ninf\n0\n"),
                                               ("z0.vec", "2 1\n-inf\n0\n")])
    def test_non_finite_matrix_entry(self, files, capsys, name, content):
        (files / name).write_text(content)
        assert run(files, "simulate", FILES_CFG) != 0
        line = last_line(capsys)
        assert line.startswith("ERROR ValueError:") and name in line and "non-finite" in line

    def test_certify_rejects_nan_embedding_constant(self, tmp_path, capsys):
        text = KDV_SWEEP + "certificate = semiglobal\nr = 5.0\nc_S = nan\n"
        assert run(tmp_path, "certify", text) == 3
        assert "[analysis] c_S:" in last_line(capsys)
        assert not (tmp_path / "certificate.txt").exists()

    @pytest.mark.parametrize("content", ["", "t,norm_H,norm_DA,V,damping_power\n"])
    def test_trajectory_without_samples(self, tmp_path, capsys, content):
        (tmp_path / "trajectory.csv").write_text(content)
        assert run(tmp_path, "fit-decay", SCALAR_SAT) == 4
        line = last_line(capsys)
        assert line.startswith("ERROR MissingInput:") and "trajectory.csv" in line


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert run(tmp_path, "simulate", SCALAR_SAT, out=out, seed=7) == 0
            assert run(tmp_path, "fit-decay", SCALAR_SAT, out=out, seed=7) == 0
        for name in ("trajectory.csv", "decay_fit.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
