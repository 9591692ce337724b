import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from math import pi
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catwalk.cli import (
    FLOAT_FMT,
    KEYS,
    MODES,
    Table,
    _build_parser,
    _wigner_table,
    _write_table,
    alpha_table,
    build_config,
    main,
    parse_angle,
    parse_config_file,
    parse_grid,
)
from catwalk import cli, efmt, fock, observables
from catwalk.dephasing import GRAM_BUDGET_BYTES, kick_gram_bytes
from catwalk.errors import ConfigError
from catwalk.protocol import PhysicalParams, ProtocolParams, derive_protocol


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParsing:
    def test_angles(self):
        assert parse_angle("4.5pi") == pytest.approx(4.5 * pi)
        assert parse_angle("pi") == pytest.approx(pi)
        assert parse_angle("-0.5pi") == pytest.approx(-pi / 2)
        assert parse_angle("0.25") == 0.25
        assert parse_angle("1e-3") == 1e-3
        with pytest.raises(ConfigError):
            parse_angle("two pi")

    def test_grid(self):
        g = parse_grid("-6, 6, -5, 5, 101, 51")
        assert (g.x_min, g.x_max, g.p_min, g.p_max, g.nx, g.np) == (-6, 6, -5, 5, 101, 51)
        with pytest.raises(ConfigError):
            parse_grid("1,2,3")
        with pytest.raises(ConfigError):
            parse_grid("6,-6,-5,5,11,11")

    def test_config_file(self, tmp_path):
        cfg = write_config(
            tmp_path,
            """
            # walk reproduction
            l1 = 0.1     # kick
            l2 = 0.01
            phi = 4.5pi
            n = 3
            """,
        )
        raw = parse_config_file(cfg)
        assert raw == {"l1": "0.1", "l2": "0.01", "phi": "4.5pi", "n": "3"}

    def test_config_rejects_garbage(self, tmp_path):
        cfg = write_config(tmp_path, "this is not a config\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)

    @pytest.mark.parametrize("first, again", [("n = 5", "n = 2"),
                                              ("decay-exponent = 1", "decay_exponent = 0")])
    def test_key_given_twice_rejected(self, tmp_path, first, again):
        cfg = write_config(tmp_path, f"l1 = 0.1\n{first}\nl2 = 0.01\n{again}\n")
        with pytest.raises(ConfigError, match=r"run.cfg:4: .* again; line 2 gives it first"):
            parse_config_file(cfg)

    def test_key_given_twice_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "l1 = 0.1\nl2 = 0.01\nn = 5\nn = 2\n")
        assert main(["walk", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "line 3" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_flags_override_file_values(self, tmp_path):
        cfg = write_config(tmp_path, f"l1 = 0.1\nn = 1\nout = {tmp_path / 'file'}\n"
                                     "format = csv\noutputs = alpha-table\n")
        out = tmp_path / "flag"
        assert main(["alpha-table", "--config", str(cfg), "--out", str(out),
                     "--format", "json"]) == 0
        assert (out / "alpha_table.json").exists() and not (tmp_path / "file").exists()

    def test_unknown_key_rejected(self):
        # output_dir, seed and n_max were accepted once and did nothing
        for key in ("frobnicate", "output_dir", "seed", "n_max"):
            with pytest.raises(ConfigError, match=key):
                build_config("walk", {"l1": "0.1", key: "1"})

    @pytest.mark.parametrize("mode, outputs", [
        ("walk", "oracle-table"),
        ("decohere", "pdist"),
        ("alpha-table", "alpha-table,diagnostics"),
        ("cat", "pdist,nonsense"),
    ])
    def test_unwritable_output_rejected(self, tmp_path, mode, outputs):
        with pytest.raises(ConfigError, match=outputs.split(",")[-1]):
            build_config(mode, {"n": "2", "outputs": outputs})
        cfg = write_config(tmp_path, f"l1 = 0.1\nl2 = 0.01\nn = 2\noutputs = {outputs}\n")
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            build_config("walk", {"mode": "cat"})

    def test_xi_list_only_in_decohere(self, tmp_path):
        with pytest.raises(ConfigError):
            build_config("walk", {"xi": "0,0.2"})
        cfg = build_config("decohere", {"xi": "0,0.2", "n": "2"})
        assert cfg.xi_values == (0.0, 0.2)
        # xi is read only by decohere and decay_exponent only by cat;
        # any other mode refuses them instead of ignoring them
        for mode, key in [("walk", "xi"), ("cat", "xi"), ("alpha-table", "xi"),
                          ("oracle-check", "xi"), ("walk", "decay_exponent"),
                          ("decohere", "decay_exponent"),
                          ("alpha-table", "decay_exponent"),
                          ("oracle-check", "decay_exponent")]:
            with pytest.raises(ConfigError, match=key):
                build_config(mode, {"n": "2", key: "0.5"})
        cfg = write_config(tmp_path, "l1 = 0.1\nl2 = 0.01\nphi = 4.5pi\nn = 2\nxi = 0.5\n")
        assert main(["walk", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()


class TestAlphaTable:
    def test_rows(self):
        table = alpha_table(ProtocolParams(0.1, 0.01, 0.0, 5))
        rows = list(zip(*table.columns.values()))
        byj = {r[0]: r for r in rows}
        assert list(table.columns) == ["j", "re_alpha", "im_alpha", "theta"]
        assert len(rows) == 11
        assert byj[0][1:] == (0.0, 0.0, 0.0)
        assert byj[1][1] == pytest.approx(0.00314107591, abs=1e-9)
        assert byj[1][2] == pytest.approx(0.199950656, abs=1e-9)
        assert byj[5][1] == pytest.approx(0.0783720116, abs=1e-8)
        assert byj[5][2] == pytest.approx(0.995810825, abs=1e-8)
        assert byj[-5][2] == pytest.approx(-0.995810825, abs=1e-8)

    def test_cli_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "l1 = 0.1\nl2 = 0.01\nn = 5\n")
        code = main(["alpha-table", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        table = (tmp_path / "o" / "alpha_table.csv").read_text().splitlines()
        assert table[0].startswith("#")
        assert table[1] == "j,re_alpha,im_alpha,theta"
        assert len(table) == 13
        row1 = dict(zip(table[1].split(","), table[8].split(",")))
        assert float(row1["re_alpha"]) == pytest.approx(0.00314107591, abs=1e-9)


class TestWalkRun:
    def test_outputs_and_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "l1 = 0.1\nl2 = 0.01\nphi = 4.5pi\nn = 5\n"
            "outputs = alpha-table,pdist,wigner,diagnostics\n",
        )
        out = tmp_path / "walk"
        assert main(["walk", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        names = {o["name"] for o in report["outputs"]}
        assert names == {"alpha_table", "pdist", "wigner", "diagnostics"}
        for item in report["outputs"]:
            payload = Path(item["path"]).read_bytes()
            assert hashlib.sha256(payload).hexdigest() == item["sha256"]
        assert report["diagnostics"]["success_probability"] < 1e-3
        assert report["diagnostics"]["mean_x"] == pytest.approx(-1.0935, abs=1e-3)
        timings = report["timings"]
        assert set(timings["write_s"]) == names
        assert timings["compute_s"] > 0 and all(t > 0 for t in timings["write_s"].values())
        assert timings["compute_s"] + sum(timings["write_s"].values()) <= report["wall_time_s"]

    def test_pdist_reparses_and_normalizes(self, tmp_path):
        cfg = write_config(tmp_path, "l1 = 0.1\nl2 = 0.01\nphi = 4.5pi\nn = 1\n")
        out = tmp_path / "o"
        assert main(["walk", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "pdist.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert header == ["x", "density"]
        rows = [tuple(map(float, ln.split(","))) for ln in lines[2:]]
        dx = rows[1][0] - rows[0][0]
        total = sum(r[1] for r in rows) * dx
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path, "l1 = 0.1\nl2 = 0.01\nphi = 4.5pi\nn = 4\n")
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["walk", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out.iterdir())
                    if p.name != "report.json"
                }
            )
        assert outs[0] == outs[1]

    def test_rates_give_the_walk_of_their_knobs(self, tmp_path):
        # the four rates alone set the protocol; no switch selects them
        omega1 = 16.25 / (1 - 1e-4 / 2)
        pp = derive_protocol(PhysicalParams(1.0, 0.01, omega1, 1.5), 3)
        outputs = "outputs = alpha-table,pdist,wigner,diagnostics\n"
        rates = write_config(tmp_path, f"omega = 1.0\ng = 0.01\nomega1 = {omega1!r}\n"
                                       "omega2 = 1.5\nn = 3\n" + outputs, "rates.cfg")
        knobs = write_config(tmp_path, f"l1 = {pp.l1!r}\nl2 = {pp.l2!r}\n"
                                       f"phi = {pp.phi!r}\nn = 3\n" + outputs, "knobs.cfg")
        files = []
        for cfg in (rates, knobs):
            out = tmp_path / cfg.stem
            assert main(["walk", "--config", str(cfg), "--out", str(out)]) == 0
            files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                          if p.name != "report.json"})
        assert len(files[0]) == 4 and files[0] == files[1]
        assert pp.l1 == pytest.approx(0.015)

    def test_wigner_rows_are_those_of_decohere_at_xi_0(self, tmp_path):
        # both modes read the same density from the dephasing recursion;
        # only the header comment names the xi
        point = "l1 = 0.1\nl2 = 0.01\nphi = 4.5pi\nn = 6\ngrid = -6,6,-6,6,61,41\n"
        walk = write_config(tmp_path, point + "outputs = wigner\n", "walk.cfg")
        decohere = write_config(tmp_path, point + "xi = 0\noutputs = wigner\n", "dec.cfg")
        assert main(["walk", "--config", str(walk), "--out", str(tmp_path / "w")]) == 0
        assert main(["decohere", "--config", str(decohere), "--out", str(tmp_path / "d")]) == 0
        walk_lines = (tmp_path / "w" / "wigner.csv").read_bytes().splitlines()
        xi_lines = (tmp_path / "d" / "wigner_xi_0.csv").read_bytes().splitlines()
        assert walk_lines[0] != xi_lines[0]
        assert walk_lines[1:] == xi_lines[1:]

    def test_cancelling_record_exits_3(self, tmp_path):
        # zero kicks keep every label at alpha0 and phi = pi/2 makes the two
        # branches cancel in the first cycle
        cfg = write_config(tmp_path, "l1 = 0\nl2 = 0\nphi = 0.5pi\nn = 2\n")
        assert main(["walk", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, "l1 = 0.1\nl2 = 0.01\nphi = 4.5pi\nn = 1\n")
        out = tmp_path / "j"
        assert main(["walk", "--config", str(cfg), "--out", str(out),
                     "--format", "json"]) == 0
        body = json.loads((out / "pdist.json").read_text())
        assert body["columns"] == ["x", "density"]
        assert len(body["rows"]) == 201


class TestCatRun:
    def test_cat_with_decay(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "l1 = 0.1\nl2 = 0.01\nphi = 4.5pi\nn = 10\ndecay_exponent = 2.0\n",
        )
        out = tmp_path / "cat"
        assert main(["cat", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["diagnostics"]["purity"] < 1.0
        assert (out / "wigner.csv").exists()

    @pytest.mark.parametrize("decay", ["0", "2.0"])
    def test_pdist_is_the_wigner_marginal(self, tmp_path, decay):
        # both files are read from the one damped density
        cfg = write_config(
            tmp_path,
            f"l1 = 0.1\nl2 = 0.01\nphi = 4.5pi\nn = 10\ndecay_exponent = {decay}\n",
        )
        out = tmp_path / "cat"
        assert main(["cat", "--config", str(cfg), "--out", str(out)]) == 0
        x, dens = np.loadtxt(out / "pdist.csv", delimiter=",", skiprows=2).T
        w = np.loadtxt(out / "wigner.csv", delimiter=",", skiprows=2)
        p = np.unique(w[:, 1])
        marginal = w[:, 2].reshape(len(x), len(p)).sum(axis=1) * (p[1] - p[0])
        np.testing.assert_array_equal(w[:: len(p), 0], x)
        assert np.abs(marginal - dens).max() < 1e-5

    def test_cat_needs_cycles(self, tmp_path):
        cfg = write_config(tmp_path, "l1 = 0.1\nl2 = 0.01\nn = 0\n")
        assert main(["cat", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_degenerate_cat_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, "l1 = 0\nl2 = 0\nphi = 0\nn = 1\n")
        assert main(["cat", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3


class TestDecohereRun:
    def test_xi_series(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "l1 = 0.1\nl2 = 0.01\nphi = 4.5pi\nn = 3\nxi = 0,0.2,0.5,1\n"
            "grid = -6,6,-6,6,81,81\n",
        )
        out = tmp_path / "dec"
        assert main(["decohere", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        wigner_files = sorted(
            o["name"] for o in report["outputs"] if o["name"].startswith("wigner")
        )
        assert wigner_files == ["wigner_xi_0", "wigner_xi_0.2", "wigner_xi_0.5",
                                "wigner_xi_1"]
        d = report["diagnostics"]
        assert d["xi_0"]["negativity_volume"] > d["xi_1"]["negativity_volume"]

    # the 11x11 grid is too coarse on purpose, and outside run() nothing
    # captures the warning that says so
    @pytest.mark.filterwarnings("ignore::catwalk.errors.GridTooCoarse")
    def test_each_xi_table_is_computed_when_asked_for(self):
        # run() writes each xi's Wigner table before the next xi is computed,
        # so the fields of earlier xi are not held
        cfg = build_config("decohere", {"l1": "0.1", "l2": "0.01", "phi": "4.5pi",
                                        "n": "2", "xi": "0,0.5",
                                        "grid": "-6,6,-6,6,11,11"})
        tables, diag = MODES["decohere"].compute(cfg)
        assert diag == {}
        assert next(tables).name == "wigner_xi_0" and list(diag) == ["xi_0"]
        assert [t.name for t in tables] == ["wigner_xi_0.5", "diagnostics_xi_0",
                                            "diagnostics_xi_0.5"]


ORACLE_CFG = (f"omega = 1.0\ng = 0.01\nomega1 = {16.25 / (1 - 1e-4 / 2)}\n"
              "omega2 = 1.5\nn = {n}\ncutoff = {cutoff}\nfull_hamiltonian = {full}\n")


# A valid value for each key some mode does not read.
VALID = {"grid": "-6,6,-6,6,11,11", "l1": "0.1", "l2": "0.01", "phi": "4.5pi",
         "alpha0": "0.1", "xi": "0.5", "decay_exponent": "2.0", "cutoff": "80",
         "full_hamiltonian": "false"}


def base_config(mode):
    if mode == "oracle-check":
        return ORACLE_CFG.format(n=2, cutoff=80, full="false")
    return "l1 = 0.1\nl2 = 0.01\nn = 2\n"


class TestReadSets:
    """A key the selected mode does not read is refused, never ignored."""

    @pytest.mark.parametrize("mode, key", [
        (mode, key) for mode, spec in MODES.items() for key in KEYS if key not in spec.keys
    ], ids=lambda v: v)
    def test_unread_key_refused(self, tmp_path, mode, key):
        raw = parse_config_file(write_config(tmp_path, base_config(mode)))
        build_config(mode, raw)
        with pytest.raises(ConfigError, match=f"{mode} does not read {key};"):
            build_config(mode, dict(raw, **{key: VALID[key]}))
        cfg = write_config(tmp_path, base_config(mode) + f"{key} = {VALID[key]}\n")
        out = tmp_path / "x"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("key", ["derive", "gamma"])
    def test_removed_knobs_refused(self, mode, key):
        # the protocol's source follows from the keys given, and no mode
        # reads a decay rate
        with pytest.raises(ConfigError, match=key):
            build_config(mode, {"n": "2", key: "0.2"})

    @pytest.mark.parametrize("key", ["l1", "l2", "phi"])
    def test_rates_with_knobs_refused(self, key):
        raw = {"omega": "1.0", "g": "0.01", "omega1": "16.25", "omega2": "1.5",
               "n": "2", key: VALID[key]}
        with pytest.raises(ConfigError, match="not both"):
            build_config("walk", raw)

    @pytest.mark.parametrize("mode", MODES)
    def test_grid_flag_only_where_read(self, mode):
        argv = [mode, f"--grid={VALID['grid']}"]
        if "grid" in MODES[mode].keys:
            assert _build_parser().parse_args(argv).grid == VALID["grid"]
        else:
            with pytest.raises(SystemExit) as exc:
                _build_parser().parse_args(argv)
            assert exc.value.code == 2


class TestOracleCheckRun:
    def test_reports_fidelity(self, tmp_path, capsys):
        eta = 1e-2
        cfg = write_config(
            tmp_path,
            f"omega = 1.0\ng = {eta}\nomega1 = {16.25 / (1 - eta**2 / 2)}\n"
            "omega2 = 1.5\nn = 2\ncutoff = 80\n",
        )
        out = tmp_path / "oc"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "min closed-form fidelity" in captured
        report = json.loads((out / "report.json").read_text())
        assert report["diagnostics"]["fidelity_min"] >= 0.999999
        table = (out / "oracle_check.csv").read_text().splitlines()
        assert table[1] == "n,fidelity,record_probability"
        assert len(table) == 4

    @pytest.mark.parametrize("n_line", ["n = 0\n", ""], ids=["n-0", "n-omitted"])
    def test_needs_cycles(self, tmp_path, n_line):
        # with no cycle there is nothing to check; n defaults to 0
        text = ORACLE_CFG.format(n=0, cutoff=80, full="false").replace("n = 0\n", n_line)
        out = tmp_path / "x"
        assert main(["oracle-check", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_requires_physical_params(self, tmp_path):
        cfg = write_config(tmp_path, "n = 2\n")
        assert main(["oracle-check", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_reports_leakage_beside_gate(self, tmp_path):
        cfg = write_config(tmp_path, ORACLE_CFG.format(n=2, cutoff=80, full="false")
                           + "outputs = oracle-table,diagnostics\n")
        out = tmp_path / "oc"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 0
        leak = json.loads((out / "report.json").read_text())["diagnostics"]["leakage_max"]
        assert 0.0 < leak <= fock.LEAKAGE_MAX
        rows = (out / "diagnostics.csv").read_text().splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == [
            "fidelity_min", "l1", "l2", "leakage_max", "phi"]

    @pytest.mark.parametrize("n, full, expected", [
        (2, "false", 2), (8, "false", 2), (8, "true", 4),
    ])
    def test_propagators_built_once_per_run(self, tmp_path, monkeypatch, n, full,
                                            expected):
        # propagator work must not grow with n: one drive-on and one
        # drive-off propagator per Hamiltonian, whatever n is
        calls = []
        real = fock._propagator
        monkeypatch.setattr(fock, "_propagator",
                            lambda H, t: calls.append(t) or real(H, t))
        cfg = write_config(tmp_path, ORACLE_CFG.format(n=n, cutoff=40, full=full))
        assert main(["oracle-check", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 0
        assert len(calls) == expected

    def test_small_cutoff_trips_segment_gate(self, tmp_path, capsys):
        # cutoff 8 is a valid config but too small for this walk: the
        # per-segment leakage gate must stop the run with exit 3
        cfg = write_config(tmp_path, "omega = 1.0\ng = 0.01\nomega1 = 100.5\n"
                                     "omega2 = 10.0\nn = 3\ncutoff = 8\n")
        assert main(["oracle-check", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 3
        assert "top 5 Fock levels" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff", ["0", "-5", str(fock.LEAKAGE_LEVELS)])
    def test_cutoff_at_or_below_gate_levels_refused(self, tmp_path, cutoff):
        cfg = write_config(tmp_path, ORACLE_CFG.format(n=2, cutoff=cutoff, full="false"))
        assert main(["oracle-check", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_oversized_cutoff_refused_by_estimate(self, tmp_path, monkeypatch, capsys):
        cutoff = 1
        while fock.propagator_bytes(cutoff) <= fock.PROPAGATOR_BUDGET_BYTES:
            cutoff *= 2
        # never build a propagator here, even if the refusal were missing
        monkeypatch.setattr(fock, "_propagator", None)
        monkeypatch.setattr(fock, "build_heff", None)
        cfg = write_config(tmp_path, ORACLE_CFG.format(n=2, cutoff=cutoff, full="false"))
        assert main(["oracle-check", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert f"{fock.propagator_bytes(cutoff):,} bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff", [80, 160])
    def test_working_cutoffs_accepted(self, cutoff):
        cfg = build_config("oracle-check", {
            "omega": "1.0", "g": "0.01", "omega1": "16.25", "omega2": "1.5",
            "n": "10", "cutoff": str(cutoff)})
        assert cfg.cutoff == cutoff


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["walk", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_bad_grid_flag(self, tmp_path):
        cfg = write_config(tmp_path, "l1 = 0.1\nl2 = 0.01\nn = 1\n")
        assert main(["walk", "--config", str(cfg), "--grid", "bad",
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("mode, text", [
        ("walk", "l1 = nan\nl2 = 0.01\nn = 1\n"),
        ("walk", "l1 = 0.1\nl2 = 0.01\nphi = inf\nn = 1\n"),
        ("walk", "l1 = 0.1\nl2 = 0.01\nalpha0 = nan\nn = 1\n"),
        ("decohere", "l1 = 0.1\nl2 = 0.01\nxi = 0,nan\nn = 1\n"),
        ("oracle-check", "omega = 1.0\ng = 0.01\nomega1 = 16.25\n"
                         "omega2 = nan\nn = 1\n"),
        ("cat", "l1 = 0.1\nl2 = 0.01\nphi = 4.5pi\nn = 2\ndecay_exponent = nan\n"),
        ("cat", "l1 = 0.1\nl2 = 0.01\nphi = 4.5pi\nn = 2\ndecay_exponent = -3\n"),
        ("walk", "l1 = 0.1\nl2 = 0.01\nn = 1\ngrid = -inf,inf,-6,6,11,11\n"),
        ("walk", "l1 = 0.1\nl2 = 0.01\nn = 1\ngrid = -1e308,1e308,-6,6,11,11\n"),
    ], ids=["l1", "phi", "alpha0", "xi", "omega2", "decay_exponent_nan",
            "decay_exponent_negative", "grid_infinite", "grid_span_overflow"])
    def test_non_finite_parameter(self, tmp_path, mode, text):
        cfg = write_config(tmp_path, text)
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("xi", ["0.2,0.2000001", "0.2,0.2"])
    def test_xi_values_with_one_file_name_refused(self, tmp_path, xi):
        # each xi names its wigner_xi_<tag> file and diagnostics block
        cfg = write_config(tmp_path, f"l1 = 0.1\nl2 = 0.01\nn = 1\nxi = {xi}\n")
        out = tmp_path / "x"
        assert main(["decohere", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_cancelling_dephased_walk_exits_3(self, tmp_path):
        # l1 = 0 keeps every label at alpha0 and phi = pi/2 makes the two
        # kick branches cancel: the dyad weights have zero trace
        cfg = write_config(tmp_path, "l1 = 0\nl2 = 0.01\nphi = 0.5pi\nn = 3\nxi = 0\n")
        assert main(["decohere", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3

    def test_oversized_grid_refused_by_estimate(self, tmp_path, monkeypatch, capsys):
        spec = "-6,6,-6,6,100000,100000"
        # never evaluate a Wigner function here, even if the refusal were missing
        monkeypatch.setattr(observables, "_accumulate_wigner", None)
        cfg = write_config(tmp_path, "l1 = 0.1\nl2 = 0.01\nn = 1\n")
        assert main(["walk", "--config", str(cfg), f"--grid={spec}",
                     "--out", str(tmp_path / "x")]) == 2
        need = observables.wigner_bytes(parse_grid(spec))
        assert need > observables.WIGNER_BUDGET_BYTES
        assert f"{need:,} bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["walk", "decohere"])
    def test_oversized_walk_refused_by_estimate(self, tmp_path, monkeypatch, capsys, mode):
        # 2,000,001 kick labels: a 64 TB Gram matrix.  Never run here, even
        # if the refusal were missing.
        monkeypatch.setattr(cli, "run", None)
        cfg = write_config(tmp_path, f"l1 = 0.1\nl2 = 0.01\nn = {10**6}\n")
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        need = kick_gram_bytes(10**6)
        assert need > GRAM_BUDGET_BYTES
        assert f"{need:,} bytes" in capsys.readouterr().err

    def test_walk_budget_admits_n_1023(self):
        assert kick_gram_bytes(1023) <= GRAM_BUDGET_BYTES < kick_gram_bytes(1024)

    def test_skinny_grid_refused_by_estimate(self, tmp_path, monkeypatch, capsys):
        # few points in all, but the dyad profile blocks of its long axis
        # would take over 120 MB
        spec = "-6,6,-6,6,20001,21"
        monkeypatch.setattr(observables, "_accumulate_wigner", None)
        cfg = write_config(tmp_path, "l1 = 0.1\nl2 = 0.01\nn = 1\n")
        assert main(["walk", "--config", str(cfg), f"--grid={spec}",
                     "--out", str(tmp_path / "x")]) == 2
        need = observables.wigner_bytes(parse_grid(spec))
        assert need > observables.WIGNER_BUDGET_BYTES
        assert f"{need:,} bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, raw", [
        ("walk", {}),
        ("walk", {"grid": "-8,8,-8,8,401,401"}),
    ] + [(path.stem.replace("_", "-"), parse_config_file(path))
         for path in sorted(CONFIGS.glob("*.cfg"))],
        ids=["default", "401x401"] + [path.name for path in sorted(CONFIGS.glob("*.cfg"))])
    def test_working_grids_accepted(self, mode, raw):
        cfg = build_config(mode, raw)
        assert observables.wigner_bytes(cfg.grid) <= observables.WIGNER_BUDGET_BYTES

    @pytest.mark.parametrize("mode, text", [
        ("oracle-check", ORACLE_CFG.format(n=2, cutoff=80, full="false")
         .replace("omega2 = 1.5", "omega2 = 1.7")),
        ("walk", "omega = 1.0\ng = 0.2\nomega1 = 100.0\nomega2 = 1.0\nn = 2\n"),
    ], ids=["hierarchy", "eta"])
    def test_rates_outside_validity_gates(self, tmp_path, mode, text, capsys):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "x"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")),
                             ids=lambda path: path.name)
    def test_shipped_configs_run(self, tmp_path, path):
        out = tmp_path / "o"
        assert main([path.stem.replace("_", "-"), "--config", str(path),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["outputs"] and all(Path(o["path"]).exists()
                                         for o in report["outputs"])

    def test_seed_flag_refused(self, tmp_path):
        cfg = write_config(tmp_path, "l1 = 0.1\nl2 = 0.01\nn = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["walk", "--config", str(cfg), "--seed", "7"])
        assert exc.value.code == 2


class TestWriter:
    """Table bytes against the row-by-row formula they replace."""

    COLUMNS = {
        "x": np.array([-0.0, 1.5, -2.25e-300, 3.0e12]),
        "k": [0, -3, 7, 12],
        "key": ["mean_x", "a\"quote", "tab\tkey", "plain"],
    }

    @staticmethod
    def reference(comment, columns, rows, fmt):
        if fmt == "csv":
            lines = [f"# {comment}", ",".join(columns)]
            for row in rows:
                lines.append(",".join(FLOAT_FMT % v if isinstance(v, float) else str(v)
                                      for v in row))
            return "\n".join(lines) + "\n"
        body = {
            "comment": comment,
            "columns": list(columns),
            "rows": [[FLOAT_FMT % v if isinstance(v, float) else v for v in row]
                     for row in rows],
        }
        return json.dumps(body, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n_rows", [0, 1, 4])
    def test_bytes_match_reference(self, tmp_path, fmt, n_rows):
        columns = {k: v[:n_rows] for k, v in self.COLUMNS.items()}
        rows = [(float(x), k, key) for x, k, key in zip(*columns.values())]
        path = tmp_path / f"t.{fmt}"
        item = _write_table(path, Table("t", "t", "a 100% test", columns), fmt)
        expected = self.reference("a 100% test", columns, rows, fmt)
        assert path.read_bytes() == expected.encode()
        assert item["sha256"] == hashlib.sha256(expected.encode()).hexdigest()
        assert item["rows"] == n_rows

    X = np.array([-0.0, 1.5, 1.5, 1e-300, np.nan, np.inf, -np.inf])
    P = np.array([np.inf, -0.0, 0.0, 2.5, 2.5, np.nan, -1e-300])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("nx, np_", [(7, 7), (1, 7), (7, 1), (1, 1), (3, 5)])
    def test_grid_bytes_match_reference(self, tmp_path, fmt, nx, np_):
        x, p = self.X[:nx], self.P[::-1][:np_]
        w = np.random.default_rng(nx * 10 + np_).normal(size=(nx, np_)) * 1e-3
        w.flat[::3] = [-0.0, np.nan, np.inf, -np.inf, 1e-300][:len(w.flat[::3])]
        table = Table("g", "g", "a grid", {"x": x, "p": p, "w": w}, axes=("x", "p"))
        columns = {"x": np.repeat(x, len(p)), "p": np.tile(p, len(x)), "w": w.ravel()}
        rows = [tuple(map(float, row)) for row in zip(*columns.values())]
        path = tmp_path / f"g.{fmt}"
        item = _write_table(path, table, fmt)
        expected = self.reference("a grid", columns, rows, fmt)
        assert path.read_bytes() == expected.encode()
        assert item["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert item["rows"] == nx * np_

    @staticmethod
    def write_peak(tmp_path, nx, np_):
        """Peak bytes allocated while a Wigner table of nx x np points is written."""
        grid = observables.PhaseSpaceGrid(-6, 6, -6, 6, nx, np_)
        W = observables.GridField(grid, np.random.default_rng(0).normal(size=(nx, np_)),
                                  "wigner")
        table = _wigner_table(W)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _write_table(tmp_path / "w.csv", table, "csv")
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_writer_memory_is_one_chunk(self, tmp_path):
        # the text and cells of one 2048-row chunk, not of the whole file
        # (0.62 MB measured at both 401^2 and 801^2); a list of every x
        # value would add 38 kB from 401 to 1601 values of x
        for n in (401, 801):
            assert self.write_peak(tmp_path, n, n) < 2**20
        short, tall = (self.write_peak(tmp_path, nx, 51) for nx in (401, 1601))
        assert tall < short + 8192


class TestShippedTables:
    """Every table of every configs/*.cfg against TestWriter.reference."""

    @staticmethod
    def flat(table):
        """A table's columns one value per row, as the reference reads them."""
        cols = {k: np.asarray(v) for k, v in table.columns.items()}
        if table.axes:
            outer, inner = table.axes
            n_outer, n_inner = len(cols[outer]), len(cols[inner])
            cols = {k: (np.repeat(v, n_inner) if k == outer
                        else np.tile(v, n_outer) if k == inner else v.ravel())
                    for k, v in cols.items()}
        return cols, list(zip(*(v.tolist() for v in cols.values())))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda path: path.name)
    def test_shipped_config_tables_match_reference(self, tmp_path, path, fmt):
        # real Wigner tails, pdist, labels and diagnostics, every output
        mode = path.stem.replace("_", "-")
        raw = dict(parse_config_file(path), format=fmt, out=str(tmp_path),
                   outputs=",".join(MODES[mode].writable))
        tables, _ = MODES[mode].compute(build_config(mode, raw))
        names = []
        for table in tables:
            columns, rows = self.flat(table)
            out = tmp_path / f"{table.name}.{fmt}"
            _write_table(out, table, fmt)
            assert out.read_bytes() == TestWriter.reference(table.comment, columns, rows,
                                                            fmt).encode(), table.name
            names.append(table.output)
        assert set(names) == set(MODES[mode].writable)


class TestFloatCells:
    """efmt.cells against FLOAT_FMT % v, byte for byte."""

    @staticmethod
    def check(values):
        values = np.asarray(values, dtype=np.float64).ravel()
        got = [row.tobytes().replace(b"\0", b"").decode() for row in efmt.cells(values)]
        assert got == [FLOAT_FMT % v for v in values.tolist()]

    @staticmethod
    def with_neighbours(values):
        values = np.asarray(values, dtype=np.float64)
        return np.concatenate([values, np.nextafter(values, 0.0),
                               np.nextafter(values, np.inf), -values])

    @given(st.lists(st.floats(), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_any_floats(self, values):
        self.check(values)

    def test_powers_of_ten(self):
        self.check(self.with_neighbours([float(f"1e{k}") for k in range(-323, 309)]))

    def test_rounding_to_the_next_power_of_ten(self):
        # 9.9999999999995e-283 took the exponent from the rounded value once
        self.check(self.with_neighbours([float(f"9.9999999999995e{k}")
                                         for k in range(-323, 309)]))

    def test_exact_decimal_ties(self):
        # d.dddddddddddd5 * 10**k held exactly: digits, a 14-digit odd
        # multiple of 5**j, times 10**e with j = max(-e, 1), is a dyadic
        # rational of < 53 bits; e runs over -20..2, where such ties exist
        rng = np.random.default_rng(7)
        ties = []
        for e in rng.integers(-20, 3, size=2000).tolist():
            step = 5 ** max(-e, 1)
            lo, hi = -(-10**13 // step), (10**14 - 1) // step
            digits = step * (2 * int(rng.integers(lo // 2, (hi - 1) // 2 + 1)) + 1)
            v = float(f"{digits}e{e}")
            num, den = v.as_integer_ratio()
            assert num * 10**max(-e, 0) == digits * 10**max(e, 0) * den
            ties.append(v)
        self.check(self.with_neighbours(ties))

    def test_zeros_subnormals_and_range_edges(self):
        self.check([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                    np.nextafter(2.2250738585072014e-308, 0), np.finfo(float).max,
                    np.nan, np.inf, -np.inf])
        self.check(self.with_neighbours([efmt._FAST_MIN, efmt._FAST_MAX]))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(11)
        self.check(rng.integers(0, 2**63, size=20_000, dtype=np.int64).view(np.float64))


def test_cli_import_leaves_scipy_out():
    # scipy is for the tests; fractions and decimal would add to the cold
    # start, and the float formatter's tables are built by catwalk.cli alone
    import catwalk

    code = ("import sys, catwalk; print('catwalk.efmt' in sys.modules); import catwalk.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'fractions', 'decimal')))")
    env = dict(os.environ, PYTHONPATH=str(Path(catwalk.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == ["False", "[]"]
