import hashlib
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from lyapcert import cli, damping, lyapunov, models
from lyapcert import io as lio
from lyapcert.cli import TRAJECTORY_COLUMNS, main
from lyapcert.config import parse_config, serialize
from lyapcert.damping import DampingSpec
from lyapcert.errors import MissingInput, ParseError, ValidationError
from lyapcert.io import load_matrix, read_csv, read_csv_floats, save_matrix, write_csv

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

    def test_unknown_keys_refused(self):
        # a misspelled key was once stored and never read: dt fell back to its
        # default and the V column to NaN
        text = MINIMAL + "\n[sim]\ndtt = 0.5\n\n[analysis]\ncertficate = exp\n"
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        assert exc.value.violations == [
            "[sim] dtt: unknown key; one of dt|t_end|error_control|local_error_target|z0 "
            "(line 11)",
            "[analysis] certficate: unknown key; one of certificate|r|c_S|gamma|C_theta|"
            "fits|radii|window_lo|window_hi (line 14)"]

    def test_key_table_is_the_documented_one(self):
        # config.KEYS against the first column of each [section] table of docs/formats.md
        import pathlib
        import re

        from lyapcert.config import KEYS, SECTIONS
        docs = (pathlib.Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
        documented, written = {}, {}
        for sect, table in re.findall(r"^### \[(\w+)\]\n\n((?:\|.*\n)+)", docs, re.M):
            rows = table.splitlines()[2:]
            documented[sect] = {k for row in rows for k in re.findall(r"`(\w+)`", row.split("|")[1])}
            # the second column gives the row's default as a config writes
            # it, in backticks, or none
            for cells in (row.split("|") for row in rows):
                value = re.findall(r"`([^`]+)`", cells[2])
                for key in re.findall(r"`(\w+)`", cells[1]):
                    written[sect, key] = None if not value else parse_config(
                        f"[system]\nname = finite_dim\n[{sect}]\n{key} = {value[0]}\n").get(sect, key)
        assert documented == {sect: set(keys) for sect, keys in KEYS.items()}
        assert SECTIONS == tuple(KEYS)
        assert written == {(sect, key): default for sect, keys in KEYS.items()
                           for key, (default, _) in keys.items()}

    @pytest.mark.parametrize("text, problem", [
        (MINIMAL.replace("B = 1; 0", "B = 1; 0\nN = 4"),
         "[system] N: must be an integer >= 16, got 4 (line 6)"),
        (MINIMAL + "q = 2\n", "[damping] q: must lie in (0, 1), got 2 (line 9)"),
        ("[system]\nname = wave\nN = 16\nL = -1\n",
         "[system] L: must be positive and finite, got -1 (line 4)"),
        (MINIMAL + "\n[output]\nformats = csv\n",
         "[output] formats: unknown key; one of directory (line 11)")],
        ids=["N_on_finite_dim", "q_with_clamp", "L_on_wave", "output_formats"])
    def test_set_but_unread_values_refused(self, text, problem):
        # no run reads these values, yet each set value is checked: the first
        # three were once accepted unchecked, and [output] formats unread
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        assert exc.value.violations == [problem]

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

    @pytest.mark.parametrize("M", [
        np.array([[-0.0, 5e-324, 1e16, 0.1], [np.pi, -2.5e-300, 1.0, 7.0]]),
        np.array([3.0, -1.0]), np.float64(2.0)])
    def test_bytes_are_each_float_repr(self, tmp_path, M):
        path = tmp_path / "m.mat"
        digest = save_matrix(path, M)
        M2 = np.atleast_2d(M)
        expected = "\n".join([f"{M2.shape[0]} {M2.shape[1]}"] + [
            " ".join(repr(float(x)) for x in M2[r]) for r in range(len(M2))]) + "\n"
        assert path.read_bytes() == expected.encode()
        assert digest == hashlib.sha256(expected.encode()).digest()


class TestCsvWriter:
    def test_mixed_rows_formatted_per_column(self, tmp_path):
        path = tmp_path / "t.csv"
        digest = write_csv(path, ["item", "margin", "pass", "n"],
                           [("a", 0.1, True, 3),
                            ("b", np.float64(-0.0), np.bool_(False), np.int64(7))])
        assert path.read_bytes() == b"item,margin,pass,n\na,0.1,True,3\nb,-0.0,False,7\n"
        assert digest == hashlib.sha256(path.read_bytes()).digest()

    def test_ragged_rows_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [(1, 2), (3,)])

    def test_trajectory_cells_not_formatted_one_by_one(self, tmp_path, monkeypatch):
        # simulate hands write_csv a float array, formatted a column at a
        # time; the small mixed tables still go through format_value
        calls, format_value = [], lio.format_value

        def counted(v):
            calls.append(v)
            return format_value(v)

        monkeypatch.setattr(lio, "format_value", counted)
        assert run(tmp_path, "simulate", SCALAR_SAT) == 0
        assert calls == []
        assert run(tmp_path, "fit-decay", SCALAR_SAT) == 0
        assert len(calls) == 6                  # the one row of decay_fit.csv


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

    def test_report_skips_blank_lines_as_read_csv_does(self, tmp_path):
        (tmp_path / "trajectory.csv").write_text(
            "t,norm_H,norm_DA,V,damping_power\n\n0.0,2.0,3.0,nan,0.0\n \t \n"
            "0.5,1.0,1.5,nan,0.0\n\n1.0,0.5,0.75,nan,0.0\n   \n")
        (tmp_path / "sweep.csv").write_text("r,mu\n \n\n")
        assert run(tmp_path, "report", SCALAR_SAT) == 0
        assert (tmp_path / "report.txt").read_text() == (
            "run report (2 artifacts)\n\n"
            "== sweep.csv\ncolumns: r,mu\nrows: 0\n\n"
            "== trajectory.csv\ncolumns: t,norm_H,norm_DA,V,damping_power\nrows: 3\n"
            "first: 0.0,2.0,3.0,nan,0.0\nlast: 1.0,0.5,0.75,nan,0.0\n\n")
        assert (tmp_path / "plots.gp").read_text() == (
            "# line plots of the run CSVs; render with: gnuplot plots.gp\n"
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            "set term pngcairo size 900,600\n"
            "set output 'sweep.png'\n"
            "unset logscale\n"
            "plot 'sweep.csv' using 1:2 with lines title 'mu'\n"
            "set output 'trajectory.png'\n"
            "set logscale y\n"
            "plot 'trajectory.csv' using 1:2 with lines title 'norm_H', "
            "'trajectory.csv' using 1:3 with lines title 'norm_DA', "
            "'trajectory.csv' using 1:4 with lines title 'V'\n")

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

    @pytest.mark.parametrize("subs", [["certify"], ["check-damping"], ["sweep"],
                                      ["simulate", "verify"], ["simulate", "fit-decay"],
                                      ["simulate", "report"]])
    def test_manifest_digests_are_the_files(self, tmp_path, subs):
        # the writers hash what they write; the manifest must name the bytes on disk
        for sub in subs:
            assert run(tmp_path, sub, SCALAR_SAT + "radii = 1.0, 2.0\n") == 0
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        config = (tmp_path / "run.cfg").read_bytes()
        assert f"config_hash = {hashlib.sha256(config).hexdigest()}" in lines
        files = [ln.split() for ln in lines if ln.startswith("file = ")]
        assert files
        for _, _, name, size, digest in files:
            data = (tmp_path / name).read_bytes()
            assert size == f"bytes={len(data)}"
            assert digest == f"sha256={hashlib.sha256(data).hexdigest()}"

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


KDV_DOMAIN = """
[system]
name = kdv
N = 32
L = 6.283185307179586
a_profile = constant 1.0

[damping]
kind = clamp

[sim]
dt = 2e-3
t_end = 2.0
error_control = off
z0 = eigvec 0 {scale}

[analysis]
certificate = semiglobal
r = 5
"""


class TestValidityDomain:
    """A semiglobal or poly certificate holds for ||z0||_{D(A)} <= r; verify
    checks the launch in a second row of verification.csv."""

    def test_launch_outside_r_fails(self, tmp_path):
        cfg = KDV_DOMAIN.format(scale=50.0)
        for sub in ("certify", "simulate", "verify"):        # r from certificate.txt
            assert run(tmp_path, sub, cfg) == 0
        header, rows = read_csv(tmp_path / "verification.csv")
        assert header == ["check", "max_violation", "tolerance", "pass", "samples"]
        assert [row[0] for row in rows] == ["lyapunov_decrease", "validity_domain"]
        assert abs(float(rows[1][1]) - 9.0) <= 1e-12     # 50 / 5 - 1
        assert rows[1][2:] == ["1e-12", "False", "1"]

    def test_launch_inside_r_passes(self, tmp_path):
        cfg = KDV_DOMAIN.format(scale=5.0)
        for sub in ("simulate", "verify"):                   # r from the built certificate
            assert run(tmp_path, sub, cfg) == 0
        _, rows = read_csv(tmp_path / "verification.csv")
        assert [row[0] for row in rows] == ["lyapunov_decrease", "validity_domain"]
        assert abs(float(rows[1][1])) <= 1e-13           # rounding of the eigvec scaling
        assert rows[1][2:] == ["1e-12", "True", "1"]

    def test_exp_certificate_has_no_domain_row(self, tmp_path):
        for sub in ("simulate", "verify"):
            assert run(tmp_path, sub, SCALAR_SAT) == 0
        _, rows = read_csv(tmp_path / "verification.csv")
        assert [row[0] for row in rows] == ["lyapunov_decrease"]


OSCILLATOR_EXP = """
[system]
name = finite_dim
A = 0, 1; -1, 0
B = 1; 0

[damping]
kind = norm_saturation
s0 = 1.0

[sim]
dt = 2e-3
t_end = 1.0
error_control = off
z0 = eigvec 0 20.0

[analysis]
certificate = exp
"""

WAVE32_POLY = """
[system]
name = wave
N = 32
a_profile = constant 1.0

[damping]
kind = tanh
s0 = 1.0

[analysis]
certificate = poly
r = 2.0
gamma = 0.5
"""


class TestExportedCertificate:
    """simulate and verify read the certificate certify exported to the same
    --out directory through one loader; simulate reuses it only when it was
    certified for the same config and seed by the same version and
    certificate_P.mat is there."""

    @pytest.mark.parametrize("text, kind", [
        (OSCILLATOR_EXP, "global_exp_SU"),
        (KDV_DOMAIN.format(scale=5.0), "semiglobal_exp_SneqU"),
        (WAVE32_POLY, "semiglobal_poly")], ids=["oscillator", "kdv32", "wave32"])
    def test_round_trip(self, tmp_path, text, kind):
        assert run(tmp_path, "certify", text) == 0
        cfg = parse_config(text)
        system, spec = cli.build_system(cfg), cli.build_damping(cfg)
        built = cli.build_certificate(cfg, system, spec)
        scalars_only, provenance = cli.load_certificate(tmp_path, cfg)
        assert scalars_only.P is None and provenance == {
            "config_hash": cli.config_hash(cfg), "seed": "0", "tool_version": cli.__version__}
        loaded = cli._reusable_certificate(tmp_path, cfg, system, spec, seed=0)
        for cert in (scalars_only, loaded):
            assert cert.kind == kind == built.kind
            assert cert.scalars() == built.scalars() and cert.flags == built.flags
        if kind == "semiglobal_poly":       # gamma = 1/2 is flagged
            assert len(loaded.flags) == 1
        Z = np.random.default_rng(3).standard_normal((5, system.n))
        Y = Z @ system.H_ip.factor
        for V in (lyapunov.eval_V(loaded, Z),
                  lyapunov.eval_V(loaded, y=Y, norm_H=np.linalg.norm(Y, axis=1))):
            np.testing.assert_allclose(V, lyapunov.eval_V(built, Z), rtol=1e-12, atol=0)

    @staticmethod
    def edit_certificate(tmp_path, key, line):
        """Replace certificate.txt's `key = ...` line by `line`, or drop it."""
        cert_path = tmp_path / "certificate.txt"
        lines = cert_path.read_text().splitlines()
        kept = [line if ln.startswith(key + " = ") else ln for ln in lines]
        cert_path.write_text("\n".join(ln for ln in kept if ln is not None) + "\n")

    @staticmethod
    def count_builders(monkeypatch):
        calls = []
        for module, name in ((lyapunov, "build_exp_certificate"),
                             (lyapunov, "build_semiglobal_certificate"),
                             (lyapunov, "build_poly_certificate"), (models, "estimate_cS")):
            def counted(*args, _builder=getattr(module, name), **kwargs):
                calls.append(_builder.__name__)
                return _builder(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        return calls

    def test_simulate_reuses_certificate_of_same_config(self, tmp_path, monkeypatch):
        text = KDV_DOMAIN.format(scale=5.0)
        assert run(tmp_path, "certify", text) == 0
        # a changed M shows in V only if simulate reads the exported certificate
        self.edit_certificate(tmp_path, "M", "M = 0.5")
        calls = self.count_builders(monkeypatch)
        assert run(tmp_path, "simulate", text) == 0
        assert calls == []
        cfg = parse_config(text)
        system, spec = cli.build_system(cfg), cli.build_damping(cfg)
        exported = cli._reusable_certificate(tmp_path, cfg, system, spec, seed=0)
        assert exported.M == 0.5
        V0 = float(read_csv(tmp_path / "trajectory.csv")[1][0][3])
        z0 = cli.initial_state(cfg, system)
        assert abs(V0 / lyapunov.eval_V(exported, z0) - 1.0) <= 1e-12
        assert run(tmp_path, "verify", text) == 0

    @pytest.mark.parametrize("certify_seed", [0, 1])
    def test_reuse_keeps_trajectory_bytes(self, tmp_path, monkeypatch, certify_seed):
        # V comes from P, which certificate_P.mat holds exactly: the same bytes
        # whether simulate builds the certificate or reads certify's.  c_S =
        # auto draws from the seed (its eigenvector probes win on this system,
        # so a seed-dependent estimate stands in), and a certificate of
        # another seed is not read.
        estimate = models.estimate_cS
        monkeypatch.setattr(models, "estimate_cS",
                            lambda system, seed=0: (1.0 + seed) * estimate(system, seed=seed))
        text = KDV_DOMAIN.format(scale=5.0)
        fresh, certified = tmp_path / "fresh", tmp_path / "certified"
        assert run(tmp_path, "simulate", text, out=fresh) == 0
        assert run(tmp_path, "certify", text, out=fresh) == 0
        assert run(tmp_path, "certify", text, out=certified, seed=certify_seed) == 0
        cfg = parse_config(text)
        M = [cli.load_certificate(out, cfg)[0].M for out in (fresh, certified)]
        assert (M[0] == M[1]) == (certify_seed == 0)
        assert run(tmp_path, "simulate", text, out=certified) == 0
        assert ((fresh / "trajectory.csv").read_bytes()
                == (certified / "trajectory.csv").read_bytes())

    @pytest.mark.parametrize("case", ["other_config", "other_seed", "other_version",
                                      "no_config_hash", "no_P_file", "quoted_kind",
                                      "malformed_r", "infinite_r"])
    def test_simulate_builds_its_own_certificate(self, tmp_path, monkeypatch, case):
        text = KDV_DOMAIN.format(scale=5.0)
        other = text.replace("r = 5", "r = 6")
        assert run(tmp_path, "certify", other if case == "other_config" else text,
                   name="certified.cfg", seed=1 if case == "other_seed" else 0) == 0
        if case == "other_version":
            self.edit_certificate(tmp_path, "tool_version", "tool_version = 0.0.1")
        if case == "no_config_hash":
            self.edit_certificate(tmp_path, "config_hash", None)
        if case == "no_P_file":
            (tmp_path / "certificate_P.mat").unlink()
        if case == "quoted_kind":
            self.edit_certificate(tmp_path, "kind", 'kind = "semiglobal_exp_SneqU"')
        if case in ("malformed_r", "infinite_r"):
            self.edit_certificate(tmp_path, "r", "r = 5.0x" if case == "malformed_r"
                                  else "r = inf")
        calls = self.count_builders(monkeypatch)
        assert run(tmp_path, "simulate", text) == 0
        assert calls == ["estimate_cS", "build_semiglobal_certificate"]

    def test_simulate_rebuilds_for_P_of_wrong_shape(self, tmp_path, monkeypatch):
        text = KDV_DOMAIN.format(scale=5.0)
        fresh, certified = tmp_path / "fresh", tmp_path / "certified"
        assert run(tmp_path, "simulate", text, out=fresh) == 0
        assert run(tmp_path, "certify", text, out=certified) == 0
        save_matrix(certified / "certificate_P.mat", np.eye(33))       # the state has 32
        calls = self.count_builders(monkeypatch)
        assert run(tmp_path, "simulate", text, out=certified) == 0
        assert calls == ["estimate_cS", "build_semiglobal_certificate"]
        assert ((fresh / "trajectory.csv").read_bytes()
                == (certified / "trajectory.csv").read_bytes())

    @pytest.mark.parametrize("kind", ["'finite_dim'", '"finite_dim"', "finite_dim", "'finite'",
                                      "''"])
    def test_verify_refuses_unknown_kind(self, tmp_path, capsys, kind):
        assert run(tmp_path, "simulate", OSCILLATOR_EXP) == 0
        assert run(tmp_path, "certify", OSCILLATOR_EXP) == 0
        self.edit_certificate(tmp_path, "kind", f"kind = {kind}")
        capsys.readouterr()
        assert run(tmp_path, "verify", OSCILLATOR_EXP) == 4
        line = last_line(capsys)
        assert line.startswith("ERROR MissingInput:") and f"kind {kind} is not one of" in line
        assert not (tmp_path / "verification.csv").exists()

    @pytest.mark.parametrize("entry", ["r = inf", "kind = 'finite_dim'", "M"])
    def test_verify_checks_the_hash_first(self, tmp_path, capsys, entry):
        # a certificate of another config is stale whatever its other lines hold
        text = KDV_DOMAIN.format(scale=5.0)
        other = text.replace("r = 5", "r = 6")
        assert run(tmp_path, "certify", text) == 0
        self.edit_certificate(tmp_path, entry.partition(" = ")[0], entry if "=" in entry else None)
        assert run(tmp_path, "simulate", other, name="other.cfg") == 0
        capsys.readouterr()
        assert run(tmp_path, "verify", other, name="other.cfg") == 5
        assert last_line(capsys).startswith("ERROR StaleCertificate:")
        assert not (tmp_path / "verification.csv").exists()

    @pytest.mark.parametrize("entry", ["r = 5.0x", "r = inf", "r = nan", "M = -inf",
                                       "M = ", "mu = 1e999"])
    def test_verify_refuses_scalar_not_finite(self, tmp_path, capsys, entry):
        # the launch lies outside r = 5, which a dropped or infinite r would hide
        cfg = KDV_DOMAIN.format(scale=50.0)
        for sub in ("certify", "simulate"):
            assert run(tmp_path, sub, cfg) == 0
        key, _, value = entry.partition(" = ")
        self.edit_certificate(tmp_path, key, entry)
        capsys.readouterr()
        assert run(tmp_path, "verify", cfg) == 4
        line = last_line(capsys)
        assert line.startswith("ERROR MissingInput:")
        assert f"{key} = {value!r} is not a finite number" in line
        assert not (tmp_path / "verification.csv").exists()

    @pytest.mark.parametrize("entry", ["C = -1.0", "C = 0.0", "r = -5.0", "r = 0.0"])
    def test_verify_refuses_scalar_not_positive(self, tmp_path, capsys, entry):
        # C = -1 would pass any decrease and r = -5 any launch, this one outside r = 5
        cfg = KDV_DOMAIN.format(scale=50.0)
        for sub in ("certify", "simulate"):
            assert run(tmp_path, sub, cfg) == 0
        key, _, value = entry.partition(" = ")
        self.edit_certificate(tmp_path, key, entry)
        capsys.readouterr()
        assert run(tmp_path, "verify", cfg) == 4
        line = last_line(capsys)
        assert line.startswith("ERROR MissingInput:")
        assert f"{key} = {value!r} is not positive" in line
        assert not (tmp_path / "verification.csv").exists()


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


TRAJECTORY_HEADER = "t,norm_H,norm_DA,V,damping_power"
TRAJECTORY_BODY = [f"{0.5 * i!r},{0.9 ** i!r},{0.9 ** i!r},{0.81 ** i!r},0.0" for i in range(40)]


def trajectory_text(body, end="\n", final=True):
    return end.join([TRAJECTORY_HEADER] + body) + (end if final else "")


def simulated_like(body):
    """A config whose simulate run writes as many rows as `body` holds."""
    return SCALAR_SAT.replace("dt = 1e-3", "dt = 0.5").replace(
        "t_end = 6.0", f"t_end = {0.5 * (len(body) - 1)!r}")


# trajectory.csv files that verify and fit-decay refuse with MissingInput
MALFORMED_TRAJECTORIES = {
    "four_cells": TRAJECTORY_BODY[:5] + ["2.5,0.5,0.5,0.25"] + TRAJECTORY_BODY[6:],
    "six_cells": TRAJECTORY_BODY[:5] + [TRAJECTORY_BODY[5] + ",0.0"] + TRAJECTORY_BODY[6:],
    "non_numeric_cell": TRAJECTORY_BODY[:5] + ["2.5,x,0.5,0.25,0.0"] + TRAJECTORY_BODY[6:],
    "hash_cell": TRAJECTORY_BODY[:5] + ["2.5,#,0.5,0.25,0.0"] + TRAJECTORY_BODY[6:],
}
# well-formed rows whose values verify and fit-decay refuse with MissingInput
INVALID_TRAJECTORIES = {
    "nan_time": (TRAJECTORY_BODY[:5] + ["nan,0.5,0.5,0.25,0.0"] + TRAJECTORY_BODY[6:],
                 "has non-finite t values"),
    "inf_norm_H": (TRAJECTORY_BODY[:5] + ["2.5,inf,0.5,0.25,0.0"] + TRAJECTORY_BODY[6:],
                   "has non-finite norm_H values"),
    "inf_V": (TRAJECTORY_BODY[:5] + ["2.5,0.5,0.5,-inf,0.0"] + TRAJECTORY_BODY[6:],
              "has non-finite V values"),
    "nan_norm_DA": (["0.0,1.0,nan,1.0,0.0"] + TRAJECTORY_BODY[1:],
                    "has non-finite norm_DA values"),
    "equal_times": (TRAJECTORY_BODY[:1] + TRAJECTORY_BODY,
                    "has times that are not strictly increasing"),
}
# line layouts that read as the same samples as trajectory_text(TRAJECTORY_BODY)
TOLERATED_TRAJECTORIES = {
    "blank_line": trajectory_text(TRAJECTORY_BODY[:5] + [""] + TRAJECTORY_BODY[5:]),
    "whitespace_line": trajectory_text(TRAJECTORY_BODY[:5] + [" \t "] + TRAJECTORY_BODY[5:]),
    "crlf_line_ends": trajectory_text(TRAJECTORY_BODY, end="\r\n"),
    "no_final_newline": trajectory_text(TRAJECTORY_BODY, final=False),
}


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

    def test_misspelled_key(self, files, capsys):
        text = FILES_CFG + "\n[sim]\ndtt = 0.5\n"
        assert run(files, "simulate", text) == 3
        line = last_line(capsys)
        assert line.startswith("ERROR ValidationError:") and "[sim] dtt: unknown key" in line
        assert not (files / "trajectory.csv").exists()

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

    @pytest.mark.parametrize("sub, message", [
        ("verify", "1 samples (need >= 2 for the decrease check)"),
        ("fit-decay", "1 usable samples (need >= 10)")], ids=["verify", "fit-decay"])
    def test_trajectory_of_one_row(self, tmp_path, capsys, sub, message):
        (tmp_path / "trajectory.csv").write_text(trajectory_text(TRAJECTORY_BODY[:1]))
        assert run(tmp_path, sub, SCALAR_SAT) == 5
        assert last_line(capsys) == f"ERROR InsufficientData: {message}"

    # each file is read twice: alone, and over the trajectory.f64 of a
    # simulate run with as many rows, a valid copy of the CSV that the file
    # overwrites; only the copy's key then tells the two apart
    @pytest.mark.parametrize("sub", ["verify", "fit-decay"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_TRAJECTORIES))
    def test_trajectory_rows_not_5_numbers(self, tmp_path, capsys, sub, case):
        body = MALFORMED_TRAJECTORIES[case]
        for simulated in (False, True):
            if simulated:
                assert run(tmp_path, "simulate", simulated_like(body), name="sim.cfg") == 0
            (tmp_path / "trajectory.csv").write_bytes(trajectory_text(body).encode())
            assert run(tmp_path, sub, SCALAR_SAT) == 4
            assert last_line(capsys) == (f"ERROR MissingInput: {tmp_path / 'trajectory.csv'} "
                                         "has rows that are not 5 numbers")

    @pytest.mark.parametrize("sub", ["verify", "fit-decay"])
    @pytest.mark.parametrize("case", sorted(INVALID_TRAJECTORIES))
    def test_trajectory_values_invalid(self, tmp_path, capsys, sub, case):
        body, message = INVALID_TRAJECTORIES[case]
        for simulated in (False, True):
            if simulated:
                assert run(tmp_path, "simulate", simulated_like(body), name="sim.cfg") == 0
            (tmp_path / "trajectory.csv").write_text(trajectory_text(body))
            assert run(tmp_path, sub, SCALAR_SAT) == 4
            assert last_line(capsys) == (f"ERROR MissingInput: {tmp_path / 'trajectory.csv'} "
                                         + message)

    @pytest.mark.parametrize("sub, produced", [("verify", "verification.csv"),
                                               ("fit-decay", "decay_fit.csv")])
    @pytest.mark.parametrize("case", sorted(TOLERATED_TRAJECTORIES))
    def test_trajectory_line_layout_read_as_clean_file(self, tmp_path, capsys, sub,
                                                       produced, case):
        results = []
        for name, text in (("clean", trajectory_text(TRAJECTORY_BODY)),
                           (case, TOLERATED_TRAJECTORIES[case])):
            out = tmp_path / name
            out.mkdir()
            (out / "trajectory.csv").write_bytes(text.encode())
            assert run(tmp_path, sub, SCALAR_SAT, out=out) == 0
            results.append((last_line(capsys), (out / produced).read_bytes()))
        assert results[0] == results[1]

    def test_damping_error_at_the_power_read_writes_nothing(self, tmp_path, capsys,
                                                             monkeypatch):
        # linear damping's subflow never calls apply: the first call is when
        # simulate reads the damping power, which it does before writing
        def fail(spec, *args):
            raise ValueError("sigma failed")
        monkeypatch.setattr(DampingSpec, "apply", fail)
        cfg = MINIMAL.replace("kind = clamp", "kind = linear") + (
            "\n[sim]\ndt = 1e-2\nt_end = 1.0\nerror_control = off\n")
        assert run(tmp_path, "simulate", cfg) != 0
        assert last_line(capsys) == "ERROR ValueError: sigma failed"
        assert not (tmp_path / "trajectory.csv").exists()
        assert not (tmp_path / "trajectory.f64").exists()

    @pytest.mark.parametrize("name, content", [("A.mat", "2 2\n0 1\n-1 0\n7 8 9\n"),
                                               ("z0.vec", "2 1\n2\n0\n1\n")])
    def test_matrix_file_with_extra_entries(self, files, capsys, name, content):
        (files / name).write_text(content)
        assert run(files, "simulate", FILES_CFG) != 0
        line = last_line(capsys)
        assert line.startswith("ERROR ValueError:") and name in line and "more than" in line

    def test_header_only_trajectory_warns_nothing(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        path.write_text(TRAJECTORY_HEADER + "\n \n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MissingInput, match="has a header but no samples$"):
                read_csv_floats(path, TRAJECTORY_COLUMNS)

    @pytest.mark.parametrize("cell, value", [(" 0.5 ", 0.5), ("\t+5E-1", 0.5), (".5", 0.5),
                                             ("5.", 5.0), ("-INF", -np.inf), ("Infinity", np.inf),
                                             ("-0", -0.0), ("1e309", np.inf)])
    def test_trajectory_cell_spellings_read(self, tmp_path, cell, value):
        body = TRAJECTORY_BODY[:5] + [f"2.5,0.5,{cell},0.25,0.0"] + TRAJECTORY_BODY[6:]
        (tmp_path / "trajectory.csv").write_text(trajectory_text(body))
        data = read_csv_floats(tmp_path / "trajectory.csv", TRAJECTORY_COLUMNS)
        assert data.shape == (40, 5)
        assert np.array_equal(data[5, 2:3].view(np.uint64), np.array([value]).view(np.uint64))

    @pytest.mark.parametrize("width", [1, 4, 6])
    def test_trajectory_rows_all_of_another_width(self, tmp_path, width):
        body = [",".join(["0.5"] * width)] * 3
        path = tmp_path / "trajectory.csv"
        path.write_text(trajectory_text(body))
        with pytest.raises(MissingInput) as exc:
            read_csv_floats(path, TRAJECTORY_COLUMNS)
        assert str(exc.value) == f"{path} has rows that are not 5 numbers"

    # `float` accepts these cells; numpy's text reader, and so lyapcert,
    # does not: underscores between digits, non-ASCII digits
    @pytest.mark.parametrize("cell", ["0.5_0", "\u0660.5"])
    def test_trajectory_cell_spellings_refused(self, tmp_path, cell):
        assert float(cell) == 0.5
        body = TRAJECTORY_BODY[:5] + [f"2.5,0.5,{cell},0.25,0.0"] + TRAJECTORY_BODY[6:]
        path = tmp_path / "trajectory.csv"
        path.write_bytes(trajectory_text(body).encode())
        with pytest.raises(MissingInput) as exc:
            read_csv_floats(path, TRAJECTORY_COLUMNS)
        assert str(exc.value) == f"{path} has rows that are not 5 numbers"


NO_CERTIFICATE = SCALAR_SAT.replace("certificate = exp\n", "")


class TestFloatCopy:
    """simulate's trajectory.f64: the float table of trajectory.csv keyed by
    the CSV's SHA-256, read by verify and fit-decay only while the key holds."""

    @pytest.mark.parametrize("cfg", [SCALAR_SAT, NO_CERTIFICATE], ids=["V", "V_nan"])
    def test_copy_is_the_parsed_csv_bitwise(self, tmp_path, cfg):
        assert run(tmp_path, "simulate", cfg) == 0
        csv = tmp_path / "trajectory.csv"
        copy = lio.load_float_copy(tmp_path / "trajectory.f64", csv, TRAJECTORY_COLUMNS)
        parsed = read_csv_floats(csv, TRAJECTORY_COLUMNS)
        assert np.array_equal(copy.view(np.uint64), parsed.view(np.uint64))
        assert copy.flags.writeable and parsed.flags.writeable
        assert np.all(np.isnan(copy[:, 3])) == (cfg is NO_CERTIFICATE)

    def test_loaded_trajectory_holds_the_csv_columns(self, tmp_path):
        assert run(tmp_path, "simulate", SCALAR_SAT) == 0
        traj = cli._load_trajectory(str(tmp_path))
        parsed = read_csv_floats(tmp_path / "trajectory.csv", TRAJECTORY_COLUMNS)
        for col, name in enumerate(("times", "norm_H", "norm_DA", "V_values")):
            assert np.array_equal(getattr(traj, name), parsed[:, col]), name
        with pytest.raises(AttributeError, match="states"):
            traj.states

    def test_nan_written_as_parsed(self, tmp_path):
        table = np.array([[0.0, -0.0, np.inf, np.nan, -np.inf]])
        table[0, 3] = np.inf - np.inf           # the sign-set NaN of x86 arithmetic
        key = write_csv(tmp_path / "x.csv", TRAJECTORY_COLUMNS, table)
        lio.save_float_copy(tmp_path / "x.f64", key, table)
        copy = lio.load_float_copy(tmp_path / "x.f64", tmp_path / "x.csv", TRAJECTORY_COLUMNS)
        parsed = read_csv_floats(tmp_path / "x.csv", TRAJECTORY_COLUMNS)
        assert np.array_equal(copy.view(np.uint64), parsed.view(np.uint64))

    @staticmethod
    def outputs(tmp_path, out, capsys):
        capsys.readouterr()
        assert run(tmp_path, "verify", SCALAR_SAT, out=out) == 0
        assert run(tmp_path, "fit-decay", SCALAR_SAT, out=out) == 0
        return (capsys.readouterr().out, (out / "verification.csv").read_bytes(),
                (out / "decay_fit.csv").read_bytes())

    def test_outputs_whatever_the_copy(self, tmp_path, capsys, monkeypatch):
        parses = []
        monkeypatch.setattr(cli, "read_csv_floats",
                            lambda *a: parses.append(a) or read_csv_floats(*a))
        run_dir, other = tmp_path / "run", tmp_path / "other"
        assert run(tmp_path, "simulate", SCALAR_SAT, out=run_dir) == 0
        assert run(tmp_path, "simulate", SCALAR_SAT.replace("t_end = 6.0", "t_end = 5.0"),
                   name="other.cfg", out=other) == 0
        copy = run_dir / "trajectory.f64"
        whole = copy.read_bytes()
        expected = self.outputs(tmp_path, run_dir, capsys)
        assert parses == []                     # the copy was read, not the CSV
        variants = {"deleted": None, "empty": b"", "key_cut": whole[:16],
                    "row_cut": whole[:-40], "byte_cut": whole[:-1],
                    "row_added": whole + whole[-40:],
                    "other_run": (other / "trajectory.f64").read_bytes()}
        for name, content in variants.items():
            if content is None:
                copy.unlink()
            else:
                copy.write_bytes(content)
            assert self.outputs(tmp_path, run_dir, capsys) == expected, name
            assert len(parses) == 2, name       # verify and fit-decay parsed the CSV
            parses.clear()

    def test_simulate_hashes_each_output_once(self, tmp_path, monkeypatch):
        # write_csv and save_float_copy hash the bytes they write; neither the
        # copy's key nor the manifest reads trajectory.csv or trajectory.f64 back
        made, sha256 = [], hashlib.sha256

        def counted(*data):
            made.append(sha256(*data))
            return made[-1]

        monkeypatch.setattr(hashlib, "sha256", counted)
        assert run(tmp_path, "simulate", SCALAR_SAT) == 0
        monkeypatch.undo()
        digests = [h.digest() for h in made]
        for name in ("trajectory.csv", "trajectory.f64"):
            assert digests.count(sha256((tmp_path / name).read_bytes()).digest()) == 1, name

    def test_manifest_lists_copy_and_report_skips_it(self, tmp_path):
        assert run(tmp_path, "simulate", SCALAR_SAT) == 0
        assert "file = trajectory.f64 bytes=" in (tmp_path / "manifest.txt").read_text()
        assert run(tmp_path, "report", SCALAR_SAT) == 0
        report = (tmp_path / "report.txt").read_text()
        assert report.startswith("run report (1 artifacts)\n")
        assert "trajectory.f64" not in report


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert run(tmp_path, "simulate", SCALAR_SAT, out=out, seed=7) == 0
            assert run(tmp_path, "fit-decay", SCALAR_SAT, out=out, seed=7) == 0
        for name in ("trajectory.csv", "trajectory.f64", "decay_fit.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestImports:
    def test_cli_import_does_not_load_scipy_integrate(self):
        # nothing the CLI runs integrates numerically, so the slow
        # scipy.integrate import stays out of every subcommand's start-up
        import lyapcert
        src = os.path.dirname(os.path.dirname(os.path.abspath(lyapcert.__file__)))
        code = ("import sys, lyapcert.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[:2] == ['scipy', 'integrate']))")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


KDV16_INDICATOR = """
[system]
name = kdv
N = 16
L = 6.283185307179586
a_profile = indicator 1.0 3.0 2.0

[damping]
kind = clamp

[sim]
dt = 1e-2
t_end = 2.0
error_control = off

[analysis]
certificate = semiglobal
r = 5.0
c_S = 1.5
radii = 1, 5
"""


def line_of(text, key):
    """The line number at which `key = ...` is set in a config text."""
    return 1 + next(i for i, ln in enumerate(text.splitlines())
                    if ln.split("=", 1)[0].strip() == key)


class TestBuildersFromConfig:
    """The config-to-object paths: damping kinds and overrides, the a_profile
    grammar, and the per-key checks."""

    @pytest.mark.parametrize("kind, keys, expected", [
        ("linear", "", damping.linear()),
        ("norm_saturation", "s0 = 2.0", damping.norm_saturation(2.0)),
        ("clamp", "s0 = 0.5", damping.clamp(0.5)),
        ("tanh", "s0 = 3.0", damping.tanh_saturation(3.0)),
        ("arctan", "s0 = 0.25", damping.arctan_saturation(0.25)),
        ("weak", "c = 2.0\nq = 0.25", damping.weak_damping(2.0, 0.25))])
    def test_each_kind_builds_its_constructor(self, kind, keys, expected):
        cfg = parse_config(MINIMAL.replace("kind = clamp", f"kind = {kind}\n{keys}"))
        assert cli.build_damping(cfg) == expected

    def test_unknown_kind_refused(self, tmp_path, capsys):
        # the catalogue's type name is not a config kind
        text = MINIMAL.replace("kind = clamp", "kind = weak_damping")
        assert run(tmp_path, "certify", text) == 3
        assert last_line(capsys) == (
            "ERROR ValidationError: [damping] kind: unknown kind 'weak_damping'; "
            "one of linear|norm_saturation|clamp|tanh|arctan|weak (line 8)")

    def test_override_failing_the_sector_inequality_refused(self, tmp_path, capsys):
        # the clamp with C1 = 0.5, C2 = 2 fails item 3 by the margin that
        # check-damping reports at seed 0 with the default verify_dim and
        # verify_trials, so no certificate is written
        text = (MINIMAL + "\n[analysis]\ncertificate = exp\n").replace(
            "kind = clamp", "kind = clamp\nC1 = 0.5\nC2 = 2")
        assert run(tmp_path, "certify", text) == 3
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("ERROR")] == out[-1:]
        assert out[-1].startswith("ERROR ValidationError: [damping] C1 = 0.5, C2 = 2.0:")
        spec = DampingSpec(kind="componentwise_saturation", scalar_rule="clamp", C1=0.5, C2=2.0)
        margin = damping.verify_definition(spec, dim=4, trials=1000, seed=0).sector_margin
        assert margin < 0.0 and out[-1].endswith(f"min margin {margin!r}")
        assert not (tmp_path / "certificate.txt").exists()

    def test_sweep_reads_no_sector_constant(self, tmp_path, capsys):
        # sweep integrates the configured damping and fits the observed rates;
        # it builds no certificate, so the override certify refuses changes nothing
        text = KDV16_INDICATOR.replace("indicator 1.0 3.0 2.0", "constant 1.0").replace(
            "t_end = 2.0", "t_end = 16.0")
        override = text.replace("kind = clamp", "kind = clamp\nC1 = 0.5\nC2 = 2")
        assert run(tmp_path, "sweep", text, name="a.cfg", out=tmp_path / "a") == 0
        assert run(tmp_path, "sweep", override, name="b.cfg", out=tmp_path / "b") == 0
        sweeps = [(tmp_path / d / "sweep.csv").read_bytes() for d in ("a", "b")]
        assert sweeps[0] == sweeps[1] and len(sweeps[0].splitlines()) == 3
        assert run(tmp_path, "certify", override, name="b.cfg", out=tmp_path / "b") == 3
        assert last_line(capsys).startswith(
            "ERROR ValidationError: [damping] C1 = 0.5, C2 = 2.0: the sector inequality")

    def test_C2_override_scales_M(self, tmp_path):
        cfg = MINIMAL + "\n[analysis]\ncertificate = exp\n"
        override = cfg.replace("kind = clamp", "kind = clamp\nC2 = 2.0")
        assert run(tmp_path, "certify", cfg, name="a.cfg", out=tmp_path / "a") == 0
        assert run(tmp_path, "certify", override, name="b.cfg", out=tmp_path / "b") == 0
        base = (tmp_path / "a" / "certificate.txt").read_text().splitlines()
        doubled = (tmp_path / "b" / "certificate.txt").read_text().splitlines()
        assert "M = 1.8090169943749475" in base and "damping_C2 = 1.0" in base
        assert "M = 3.618033988749895" in doubled and "damping_C2 = 2.0" in doubled
        assert "damping_C1 = 1.0" in doubled

    def test_indicator_profile_through_the_cli(self, tmp_path):
        for sub in ("certify", "simulate", "sweep"):
            assert run(tmp_path, sub, KDV16_INDICATOR) == 0
        h = 2 * np.pi / 17
        x = h * np.arange(1, 17)
        a = np.where((1.0 <= x) & (x <= 3.0), 2.0, 0.0)
        assert np.array_equal(load_matrix(tmp_path / "system_B.mat"), np.diag(np.sqrt(a)))
        system = models.discretize_kdv(2 * np.pi, 16, lambda x: 2.0 if 1.0 <= x <= 3.0 else 0.0)
        cert = lyapunov.build_semiglobal_certificate(system, damping.clamp(1.0), 5.0, c_S=1.5)
        assert (tmp_path / "certificate.txt").read_text().startswith(lyapunov.export_text(cert))
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert len(rows) == 201 and all(np.isfinite(float(r[3])) for r in rows)
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert [float(r[0]) for r in rows] == [1.0, 5.0]

    @pytest.mark.parametrize("text, key, message", [
        (KDV_SWEEP.replace("L = 6.283185307179586", "L = -1.0"), "L", "[system] L: must be positive"),
        (KDV_SWEEP.replace("constant 1.0", "constant 1.0 2.0"), "a_profile",
         "[system] a_profile: constant profile takes one amplitude"),
        (KDV_SWEEP.replace("constant 1.0", "indicator 0.2 0.8"), "a_profile",
         "[system] a_profile: indicator profile takes lo hi amplitude"),
        (KDV_SWEEP.replace("constant 1.0", "gaussian 1.0"), "a_profile",
         "[system] a_profile: expected 'constant c' or 'indicator lo hi amplitude'"),
        (KDV_SWEEP.replace("kind = clamp", "kind = weak\nq = 1.5"), "q",
         "[damping] q: must lie in (0, 1), got 1.5"),
        (KDV_SWEEP + "fits = exponential, cubic\n", "fits", "[analysis] fits: unknown fit 'cubic'")])
    def test_validation_messages(self, text, key, message):
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        [violation] = exc.value.violations
        assert violation.startswith(message)
        assert violation.endswith(f"(line {line_of(text, key)})")

    @pytest.mark.parametrize("profile", ["constant -1", "indicator 0.2 0.8 -1",
                                         "indicator 0.5 0.5 1", "indicator 0.8 0.2 1"])
    def test_profile_without_damping_refused(self, tmp_path, capsys, profile):
        text = KDV_SWEEP.replace("a_profile = constant 1.0", f"a_profile = {profile}")
        assert run(tmp_path, "simulate", text) == 3
        line = last_line(capsys)
        assert line.startswith("ERROR ValidationError: [system] a_profile:")
        assert line.endswith(f"(line {line_of(text, 'a_profile')})")
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("profile", ["constant 0", "indicator 7.0 9.0 1.0",
                                         "indicator -2 -1 1"])
    def test_profile_without_damping_on_the_grid_accepted(self, profile):
        cfg = parse_config(KDV_SWEEP.replace("constant 1.0", profile))
        assert not np.any(cli.build_system(cfg).B)


class TestOtherCliPaths:
    def test_fit_window_bounds_the_rows(self, tmp_path):
        text = SCALAR_SAT.replace("fits = exponential", "fits = exponential, polynomial\n"
                                  "window_lo = 1.0\nwindow_hi = 3.0")
        assert run(tmp_path, "simulate", text) == 0
        assert run(tmp_path, "fit-decay", text) == 0
        _, rows = read_csv(tmp_path / "decay_fit.csv")
        assert [r[0] for r in rows] == ["exponential", "polynomial"]
        for r in rows:
            assert 1.0 <= float(r[3]) < float(r[4]) <= 3.0

    @pytest.mark.parametrize("bound, lo, hi", [("window_hi = 3.0", 0.0, 3.0),
                                               ("window_lo = 4.0", 4.0, 6.0)])
    def test_fit_window_with_one_bound(self, tmp_path, bound, lo, hi):
        # the bound not set is the run's first or last time; window_hi alone
        # was once ignored, the fit taking the latter half of the run
        text = SCALAR_SAT.replace("fits = exponential", "fits = exponential\n" + bound)
        assert run(tmp_path, "simulate", text) == 0
        assert run(tmp_path, "fit-decay", text) == 0
        _, [row] = read_csv(tmp_path / "decay_fit.csv")
        assert float(row[3]) == pytest.approx(lo, abs=1e-3)
        assert float(row[4]) == pytest.approx(hi, abs=1e-3)

    def test_spelled_out_defaults_hash_the_same(self, tmp_path):
        # the serialized config holds every default, so writing one out leaves
        # config_hash as it is; these eight were once defaulted where the CLI
        # read them, outside the hash
        base = SCALAR_SAT.replace("z0 = eigvec 0 5.0\n", "")
        spelled = base + """
[system]
k = 1.0
L = 6.283185307179586
a_profile = constant 1.0

[sim]
z0 = eigvec 0 1.0

[analysis]
r = 1.0
c_S = auto
gamma = 1.0
C_theta = auto
"""
        for name, text in (("base", base), ("spelled", spelled)):
            assert run(tmp_path, "certify", text, name=f"{name}.cfg", out=tmp_path / name) == 0
        assert ((tmp_path / "base" / "certificate.txt").read_bytes()
                == (tmp_path / "spelled" / "certificate.txt").read_bytes())

    def test_sweep_without_radii(self, tmp_path, capsys):
        text = KDV_SWEEP.replace("radii = 1, 5", "")
        assert run(tmp_path, "sweep", text) == 3
        assert last_line(capsys).startswith("ERROR ValidationError: [analysis] radii:")
        assert not (tmp_path / "sweep.csv").exists()

    def test_verify_without_V_column(self, tmp_path, capsys):
        text = SCALAR_SAT.replace("certificate = exp", "")
        assert run(tmp_path, "simulate", text) == 0
        assert run(tmp_path, "verify", text) == 4
        line = last_line(capsys)
        assert line.startswith("ERROR MissingInput:") and "V column" in line

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)])
        assert rc == 4
        assert last_line(capsys).startswith("ERROR MissingInput: [Errno 2] ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("directory", [None, "elsewhere"])
    def test_output_directory_from_config(self, tmp_path, monkeypatch, directory):
        # without --out or LYAPCERT_OUT_DIR: [output] directory (default out),
        # relative to the working directory, not to the config file
        monkeypatch.delenv("LYAPCERT_OUT_DIR", raising=False)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        cfgpath = tmp_path / "run.cfg"
        extra = "" if directory is None else f"\n[output]\ndirectory = {directory}\n"
        cfgpath.write_text(SCALAR_SAT + extra)
        assert main(["simulate", "--config", str(cfgpath)]) == 0
        assert (cwd / (directory or "out") / "trajectory.csv").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cwd", "run.cfg"]

    @pytest.mark.parametrize("text, message", [
        (MINIMAL.replace("A = 0, 1; -1, 0", "A = foo"),
         "ERROR ValidationError: [system] A: not a numeric matrix: 'foo'"),
        (MINIMAL.replace("A = 0, 1; -1, 0", ""),
         "ERROR ValidationError: [system] A: required for finite_dim")])
    def test_finite_dim_matrix_refused(self, tmp_path, capsys, text, message):
        assert run(tmp_path, "simulate", text) == 3
        assert last_line(capsys) == message

    def test_fit_decay_refuses_other_header(self, tmp_path, capsys):
        body = [",".join(row.split(",")[:3]) for row in TRAJECTORY_BODY]
        (tmp_path / "trajectory.csv").write_text("\n".join(["t,norm_H,V"] + body) + "\n")
        assert run(tmp_path, "fit-decay", SCALAR_SAT) == 4
        line = last_line(capsys)
        assert line.startswith("ERROR MissingInput: ") and line.endswith(
            "trajectory.csv has unexpected columns ['t', 'norm_H', 'V']")
        assert not (tmp_path / "decay_fit.csv").exists()

    def test_report_quotes_certificate(self, tmp_path):
        assert run(tmp_path, "certify", SCALAR_SAT) == 0
        assert run(tmp_path, "report", SCALAR_SAT) == 0
        cert = (tmp_path / "certificate.txt").read_text().splitlines()
        report = (tmp_path / "report.txt").read_text().splitlines()
        start = report.index("== certificate.txt") + 1
        assert report[start:start + len(cert) + 1] == cert + [""]
