import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
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
from catwalk import cli, dephasing, efmt, fock, observables
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

    @settings(max_examples=200, deadline=None)
    @given(bounds=st.lists(st.floats(-1e300, 1e300), min_size=4, max_size=4),
           points=st.tuples(st.integers(2, 10**6), st.integers(2, 10**6)))
    def test_grid_text_reads_back(self, bounds, points):
        x_min, x_max, p_min, p_max = bounds
        try:
            g = observables.PhaseSpaceGrid(x_min, x_max, p_min, p_max, *points)
        except ValueError:
            return
        assert parse_grid(str(g)) == g

    @pytest.mark.parametrize("mode", ["walk", "cat", "decohere"])
    def test_report_echoes_the_grid_in_its_key_syntax(self, tmp_path, mode):
        grid = "-3.1, 9, -5e-1, 4.000000000000001, 21, 23"
        cfg = write_config(tmp_path, f"l1 = 0.1\nl2 = 0.01\nn = 2\ngrid = {grid}\n")
        out = tmp_path / "o"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 0
        echoed = json.loads((out / "report.json").read_text())["config"]["grid"]
        assert echoed == "-3.1,9.0,-0.5,4.000000000000001,21,23"
        assert parse_grid(echoed) == parse_grid(grid)

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
        assert 0 < timings["wigner_s"] <= timings["compute_s"]
        assert timings["wigner_bands"] == observables.read_bands(observables.default_grid())

    @pytest.mark.parametrize("config, grid", [
        pytest.param(CONFIGS / "walk.cfg", "0,12,-6,6,201,201", id="walk-cfg"),
        # the vacuum: l1 = 0 from g = 0
        pytest.param("omega = 0.5\ng = 0.0\nomega2 = 0.0\nomega1 = 0.0\nn = 1\n",
                     "-1,1,-1,3,17,17", id="vacuum"),
    ])
    def test_off_centre_grid_holds_the_state(self, tmp_path, config, grid):
        # grid_for moves out each side short of the labels; the parent read
        # 0.0466 and 0.820 here, in silence
        if isinstance(config, str):
            config = write_config(tmp_path, config)
        out = tmp_path / "walk"
        assert main(["walk", "--config", str(config), f"--grid={grid}", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["warnings"] == []
        assert report["diagnostics"]["wigner_norm"] == pytest.approx(1.0, abs=2e-5)
        pdist = (out / "pdist.csv").read_text().splitlines()[0]
        assert float(pdist.split("riemann_sum = ")[1].split(";")[0]) == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("mode", ["walk", "cat"])
    def test_grid_that_resolves_no_state_warns(self, tmp_path, mode):
        # at l1 = 1e10 grid_for keeps 201 points over a box of half-width
        # 2.8e11, a step of 2.8e9: no coherent state is resolved, and the
        # field's Riemann sum reads 8.7e17 (walk) or 0 (cat)
        cfg = write_config(tmp_path, "l1 = 1e10\nl2 = 0.01\nphi = 4.5pi\nn = 10\n")
        out = tmp_path / mode
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 0
        warned = json.loads((out / "report.json").read_text())["warnings"]
        assert len(warned) == 1 and "e+09 resolves no coherent state" in warned[0]

    def test_labels_far_apart_give_finite_numbers(self, tmp_path):
        # at l1 = 20 the kick labels lie up to 40 apart in Re alpha: a Wigner
        # kernel constant that carried exp((br - ar)^2 / 2) overflowed while
        # its x-profile underflowed, and the field and its diagnostics were nan
        cfg = write_config(tmp_path, "l1 = 20\nl2 = 0.5\nphi = 0.3\nn = 2\n"
                                     "outputs = pdist,wigner,diagnostics\n")
        out = tmp_path / "far"
        assert main(["walk", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        d = report["diagnostics"]
        assert all(math.isfinite(v) for v in d.values())
        assert d["min_W"] < 0 < d["negativity_volume"]
        assert d["wigner_norm"] == pytest.approx(1.0, abs=5e-3)
        assert not [w for w in report["warnings"] if "encountered" in w]
        rows = (out / "wigner.csv").read_text().splitlines()[2:]
        assert len(rows) == 201 * 201
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))

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

    @pytest.mark.parametrize("mode", ["walk", "cat", "decohere", "alpha-table"])
    def test_report_echoes_the_knobs_the_rates_give(self, tmp_path, mode):
        # the report's l1, l2 and phi are those the run used, not the
        # defaults of the knobs the config did not give
        pp = derive_protocol(PhysicalParams(1.0, 0.01, 16.25, 1.5), 3)
        rates = ("omega = 1\ng = 0.01\nomega1 = 16.25\nomega2 = 1.5\nn = 3\n"
                 + ("grid = -6,6,-6,6,41,41\n" if "grid" in MODES[mode].keys else ""))
        out = tmp_path / "o"
        assert main([mode, "--config", str(write_config(tmp_path, rates)),
                     "--out", str(out)]) == 0
        echoed = json.loads((out / "report.json").read_text())["config"]
        knobs = [k for k in ("l1", "l2", "phi") if k in MODES[mode].keys]
        assert knobs and {k: echoed[k] for k in knobs} == {k: getattr(pp, k) for k in knobs}
        assert pp.l1 == pytest.approx(0.015) and pp.phi != 0.0

    def test_report_echoes_the_knobs_as_given(self, tmp_path):
        cfg = write_config(tmp_path, "l1 = 0.1\nl2 = 0.01\nphi = 4.5pi\nn = 1\n")
        assert main(["walk", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        echoed = json.loads((tmp_path / "o" / "report.json").read_text())["config"]
        assert (echoed["l1"], echoed["l2"], echoed["phi"]) == (0.1, 0.01, 4.5 * pi)

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

    def test_damped_coinciding_labels_run(self, tmp_path):
        # l1 = l2 = 0 and phi = 0 cancel the pure components; damped by e^-2
        # the outcome keeps probability (1 - e^-2)/2, in the vacuum state
        point = "l1 = 0\nl2 = 0\nphi = 0\nn = 3\n"
        cfg = write_config(tmp_path, point + "decay_exponent = 2\n")
        out = tmp_path / "cat"
        assert main(["cat", "--config", str(cfg), "--out", str(out)]) == 0
        rows = dict(line.split(",") for line in
                    (out / "diagnostics.csv").read_text().splitlines()[2:])
        assert rows["success_probability"] == "4.323323583817e-01"
        assert (rows["purity"], rows["mean_x"], rows["var_x"]) == (
            "1.000000000000e+00", "0.000000000000e+00", "5.000000000000e-01")
        pure = write_config(tmp_path, point + "decay_exponent = 0\n", "pure.cfg")
        assert main(["cat", "--config", str(pure), "--out", str(tmp_path / "x")]) == 3

    def test_one_label_build_and_one_normalization(self, tmp_path, monkeypatch):
        # the density and the success probability come from one cat_density call
        calls = {"cat_labels": 0, "_normalized": 0}
        for name in calls:
            original = getattr(dephasing, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(dephasing, name, counted)
        raw = dict(parse_config_file(CONFIGS / "cat.cfg"), out=str(tmp_path / "x"))
        report = cli.run(build_config("cat", raw))
        assert calls == {"cat_labels": 1, "_normalized": 1}
        assert report.diagnostics["success_probability"] == pytest.approx(0.50007, abs=1e-5)


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
        # the band count of the config grid's refinement
        assert report["timings"]["wigner_bands"] == observables.wigner_bands(
            observables.PhaseSpaceGrid(-6, 6, -6, 6, 161, 161))

    def test_minus_zero_xi_reads_as_zero(self, tmp_path):
        cfg = write_config(tmp_path, "l1 = 0.1\nl2 = 0.01\nn = 1\nxi = -0\n"
                                     "grid = -6,6,-6,6,21,21\n")
        out = tmp_path / "dec"
        assert main(["decohere", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert sorted(o["name"] for o in report["outputs"]) == ["diagnostics_xi_0",
                                                                "wigner_xi_0"]
        assert math.copysign(1.0, report["config"]["xi"][0]) == 1.0

    def test_rates_warn_once_whatever_the_xi_count(self, tmp_path):
        # Omega1/Omega2 = 10.8 is below the soft hierarchy ratio: one run,
        # one warning, not one per xi
        cfg = write_config(tmp_path, "omega = 1\ng = 0.01\nomega1 = 16.2508\n"
                                     "omega2 = 1.5\nn = 2\nxi = 0,0.2,0.5\n"
                                     "grid = -6,6,-6,6,41,41\n")
        out = tmp_path / "dec"
        assert main(["decohere", "--config", str(cfg), "--out", str(out)]) == 0
        warned = json.loads((out / "report.json").read_text())["warnings"]
        assert sum(w.startswith("Omega1/max(Omega2, g) = 10.8") for w in warned) == 1

    # the 11x11 grid is too coarse on purpose (its step of 1.2 resolves no
    # coherent state), and outside run() nothing captures the warnings that
    # say so
    @pytest.mark.filterwarnings("ignore::catwalk.errors.GridTooCoarse")
    def test_each_xi_table_is_computed_when_asked_for(self):
        # run() writes each xi's Wigner table before the next xi is computed,
        # so the fields of earlier xi are not held
        cfg = build_config("decohere", {"l1": "0.1", "l2": "0.01", "phi": "4.5pi",
                                        "n": "2", "xi": "0,0.5",
                                        "grid": "-6,6,-6,6,11,11"})
        tables, diag = MODES["decohere"].compute(cfg, {"wigner_s": 0.0})
        assert diag == {}
        assert next(tables).name == "wigner_xi_0" and list(diag) == ["xi_0"]
        assert [t.name for t in tables] == ["wigner_xi_0.5", "diagnostics_xi_0",
                                            "diagnostics_xi_0.5"]


class TestWignerEvaluations:
    """Each density is read by one ``read_wigner``, which evaluates its
    Wigner function once, on the 2x refined grid: the written field is its
    even-index subgrid, and the diagnostics' refinement check reads the
    whole."""

    @pytest.mark.parametrize("mode, text, densities", [
        ("walk", "n = 5\noutputs = alpha-table,pdist,wigner,diagnostics\n", 1),
        ("cat", "n = 5\ndecay_exponent = 1\n", 1),
        ("decohere", "n = 5\nxi = 0,0.2,0.5,1\n", 4),
    ], ids=["walk", "cat", "decohere-4xi"])
    def test_one_evaluation_per_density(self, tmp_path, monkeypatch, mode, text, densities):
        # the 2-unit box is expanded around the labels, so the grid checked
        # is the fitted one, not the one configured
        raw = dict(parse_config_file(write_config(
            tmp_path, f"l1 = 0.1\nl2 = 0.01\nphi = 4.5pi\n{text}")),
            grid="-1,1,-1,1,41,31", out=str(tmp_path / "x"))
        cfg = build_config(mode, raw)
        calls = []
        real = observables.wigner_mixed

        def counted(rho, grid):
            calls.append(grid == observables.grid_for(rho, cfg.grid).refined())
            return real(rho, grid)

        monkeypatch.setattr(observables, "wigner_mixed", counted)
        report = cli.run(cfg)
        assert calls == [True] * densities
        assert report.warnings == []
        assert any(o["name"].startswith("wigner") for o in report.outputs)


class TestOneStateType:
    """No CLI mode builds a SuperposedState: every run reads DyadEnsembles."""

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda path: path.name)
    def test_no_config_builds_a_superposed_state(self, tmp_path, monkeypatch, path):
        from catwalk.algebra import CoherentLabel, SuperposedState

        def refuse(self):
            raise AssertionError("a CLI run built a SuperposedState")

        monkeypatch.setattr(SuperposedState, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="built a SuperposedState"):
            SuperposedState(((1.0, CoherentLabel.vacuum()),))  # the guard is live
        mode = path.stem.replace("_", "-")
        raw = dict(parse_config_file(path), out=str(tmp_path / "o"),
                   outputs=",".join(MODES[mode].writable))
        report = cli.run(build_config(mode, raw))
        assert report.outputs and all(Path(o["path"]).exists() for o in report.outputs)


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
    @pytest.mark.parametrize("key", ["derive", "gamma", "mode"])
    def test_removed_knobs_refused(self, mode, key):
        # the protocol's source follows from the keys given, and no mode
        # reads a decay rate
        with pytest.raises(ConfigError, match=key):
            build_config(mode, {"n": "2", key: "0.2"})

    @pytest.mark.parametrize("mode", MODES)
    def test_mode_key_refused(self, tmp_path, mode):
        # the subcommand alone names the mode, so the key is refused even
        # when it agrees with the subcommand
        with pytest.raises(ConfigError, match=f"{mode} does not read mode;"):
            build_config(mode, {"mode": mode})
        cfg = write_config(tmp_path, base_config(mode) + f"mode = {mode}\n")
        out = tmp_path / "x"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

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
        # n = 10 at cutoff 40 puts a representable tail, about 4e-80, in the
        # top levels; at n = 2, cutoff 80 it is below 1e-290 and reads 0
        cfg = write_config(tmp_path, ORACLE_CFG.format(n=10, cutoff=40, full="false")
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
        # drive-off segment built per Hamiltonian, whatever n is; the
        # reduced model builds its real blocks, the unreduced one its 2N
        # Hamiltonian's exponential, and neither assembles build_heff's 2N
        calls = {"reduced": 0, "full": 0}
        for name, model in (("_dressed_blocks", "reduced"), ("_propagator", "full")):
            def spy(*args, real=getattr(fock, name), model=model):
                calls[model] += 1
                return real(*args)
            monkeypatch.setattr(fock, name, spy)
        monkeypatch.setattr(fock, "build_heff", None)
        cfg = write_config(tmp_path, ORACLE_CFG.format(n=n, cutoff=40, full=full))
        assert main(["oracle-check", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 0
        assert calls == {"reduced": 2, "full": expected - 2}

    @pytest.mark.parametrize("full, shapes", [
        ("false", [((40, 40), "float64")] * 2),
        ("true", [((40, 40), "float64")] * 2 + [((80, 80), "complex128")] * 2),
    ], ids=["reduced", "full"])
    def test_eigendecompositions_per_run(self, tmp_path, monkeypatch, full, shapes):
        # a count, not a timing: the reduced drive-on propagator takes two
        # real N x N eigendecompositions and the drive-off one, diagonal,
        # none; the unreduced pass adds one complex 2N x 2N per propagator
        seen = []
        real = fock.np.linalg.eigh
        monkeypatch.setattr(fock.np.linalg, "eigh",
                            lambda H: seen.append((H.shape, H.dtype.name)) or real(H))
        cfg = write_config(tmp_path, ORACLE_CFG.format(n=8, cutoff=40, full=full))
        assert main(["oracle-check", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 0
        assert seen == shapes

    @pytest.mark.parametrize("n", [1, 10])
    def test_one_expansion_per_kick_label(self, tmp_path, monkeypatch, n):
        # alpha0 for the Fock walk, then each of the 2n + 1 kick labels once
        # for all n steps, where expanding every step's own rows takes
        # sum_k (k + 1), 65 at n = 10
        calls = []
        real = fock.coherent_fock_vector
        monkeypatch.setattr(fock, "coherent_fock_vector",
                            lambda *args: calls.append(args) or real(*args))
        cfg = write_config(tmp_path, ORACLE_CFG.format(n=n, cutoff=40, full="false"))
        assert main(["oracle-check", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 0
        assert len(calls) == 2 * n + 2

    def test_eigendecompositions_per_cat_record(self, monkeypatch):
        # the cat's Omega1-only segment is diagonal in the dressed basis:
        # only its drive-on segment takes the two real N x N
        # eigendecompositions
        seen = []
        real = fock.np.linalg.eigh
        monkeypatch.setattr(fock.np.linalg, "eigh",
                            lambda H: seen.append((H.shape, H.dtype.name)) or real(H))
        fock.run_cat_record(PhysicalParams(1.0, 0.01, 16.25 / (1 - 1e-4 / 2), 1.5), 3,
                            cutoff=40)
        assert seen == [((40, 40), "float64")] * 2

    # fidelity_min and the lowest fidelity_full before the oracle read the
    # walk's densities (the per-k binomial state, normalized), to 17 digits
    @pytest.mark.parametrize("text, passes, fid_min, full_min", [
        (ORACLE_CFG.format(n=10, cutoff=160, full="false") + "alpha0 = 0.5\n", 1,
         0.9999997576453339, None),
        ("omega = 1.0\ng = 0.01\nomega1 = 21.0\nomega2 = 2.0\nn = 4\ncutoff = 80\n"
         "full_hamiltonian = true\n", 2, 0.9999998885506329, 0.9984516970595537),
    ], ids=["alpha0-0.5", "full-hamiltonian"])
    def test_one_density_pass_per_hamiltonian(self, tmp_path, monkeypatch, text, passes,
                                              fid_min, full_min):
        # the oracle compares the Fock prefixes with the densities walk
        # writes: one walk_density_steps pass per Hamiltonian, no walk_state
        from catwalk import dephasing, protocol

        calls = []
        real = dephasing.walk_density_steps
        monkeypatch.setattr(fock, "walk_density_steps",
                            lambda pp: calls.append("steps") or real(pp))
        for module in (protocol, dephasing, fock):
            monkeypatch.setattr(module, "walk_state", lambda pp: calls.append("state"),
                                raising=False)
        cfg = build_config("oracle-check", dict(
            parse_config_file(write_config(tmp_path, text)), out=str(tmp_path / "x")))
        tables, diag = MODES["oracle-check"].compute(cfg, {})
        assert calls == ["steps"] * passes
        assert diag["fidelity_min"] == pytest.approx(fid_min, abs=1e-12)
        if full_min is not None:
            assert min(tables[0].columns["fidelity_full"]) == pytest.approx(
                full_min, abs=1e-12)

    @pytest.mark.parametrize("rates, turns", [
        ("omega1 = 16.5\nomega2 = 1\nn = 3\ncutoff = 60\n", "16.5"),
        ("omega1 = 21\nomega2 = 2\nn = 4\ncutoff = 80\n", None),
    ], ids=["16.5", "21"])
    def test_unreduced_comparison_warns_off_whole_turns(self, tmp_path, rates, turns):
        # fidelity_full tests the closed form only when Omega1/omega is an
        # integer: at 16.5 it reads 0.014, 0.31 and 0.016, at 21 above 0.998
        cfg = write_config(tmp_path, f"omega = 1\ng = 0.01\n{rates}full_hamiltonian = true\n")
        out = tmp_path / "oc"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 0
        warned = json.loads((out / "report.json").read_text())["warnings"]
        unreduced = [w for w in warned if "unreduced" in w]
        assert unreduced == ([f"the unreduced comparison needs an integer Omega1/omega, not "
                              f"{turns}: its fidelities do not test the closed form"]
                             if turns else [])

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
        self.check_refused_by_estimate(tmp_path, monkeypatch, capsys, "false", "reduced")

    def test_oversized_full_cutoff_refused_by_estimate(self, tmp_path, monkeypatch, capsys):
        self.check_refused_by_estimate(tmp_path, monkeypatch, capsys, "true", "full")

    @staticmethod
    def check_refused_by_estimate(tmp_path, monkeypatch, capsys, full, hamiltonian):
        # each model's own count: the reduced model's stacks alone, and the
        # unreduced one's 2N matrices when full_hamiltonian adds its pass
        cutoff = 1
        while fock.propagator_bytes(cutoff, hamiltonian) <= fock.PROPAGATOR_BUDGET_BYTES:
            cutoff *= 2
        # never build a propagator here, even if the refusal were missing
        for name in ("_propagator", "_dressed_blocks", "build_heff", "build_full_hamiltonian"):
            monkeypatch.setattr(fock, name, None)
        cfg = write_config(tmp_path, ORACLE_CFG.format(n=2, cutoff=cutoff, full=full))
        assert main(["oracle-check", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{fock.propagator_bytes(cutoff, hamiltonian):,} bytes of {hamiltonian}" in err

    @pytest.mark.parametrize("cutoff, full, accepted", [
        (80, "false", True), (160, "false", True), (1024, "false", True),
        (1025, "false", False), (724, "true", True), (725, "true", False),
    ])
    def test_cutoff_budget_per_model(self, cutoff, full, accepted):
        # 64 MiB holds the reduced model's 64 N^2 bytes up to N = 1024 and
        # the unreduced model's 128 N^2 up to N = 724
        raw = {"omega": "1.0", "g": "0.01", "omega1": "16.25", "omega2": "1.5",
               "n": "10", "cutoff": str(cutoff), "full_hamiltonian": full}
        if accepted:
            assert build_config("oracle-check", raw).cutoff == cutoff
        else:
            with pytest.raises(ConfigError, match=f"cutoff {cutoff} needs"):
                build_config("oracle-check", raw)

    @pytest.mark.parametrize("cutoff", [80, 160])
    def test_working_cutoffs_accepted(self, cutoff):
        cfg = build_config("oracle-check", {
            "omega": "1.0", "g": "0.01", "omega1": "16.25", "omega2": "1.5",
            "n": "10", "cutoff": str(cutoff)})
        assert cfg.cutoff == cutoff


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["walk", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_config_file_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"l1 = 0.1\n\xff = 2\n")
        out = tmp_path / "x"
        assert main(["walk", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: cannot read config file:" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_with_byte_order_mark(self, tmp_path):
        # the mark is no part of the first key: the run writes the bytes of
        # the same config without it
        text = b"l1 = 0.1\nl2 = 0.01\nphi = 4.5pi\nn = 2\n"
        (tmp_path / "plain.cfg").write_bytes(text)
        (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + text)
        files = {}
        for name in ("plain", "bom"):
            out = tmp_path / name
            assert main(["walk", "--config", str(tmp_path / f"{name}.cfg"),
                         "--out", str(out)]) == 0
            files[name] = {p.name: p.read_bytes() for p in out.iterdir() if p.suffix == ".csv"}
        assert sorted(files["bom"]) == ["alpha_table.csv", "diagnostics.csv", "pdist.csv"]
        assert files["bom"] == files["plain"]

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
    ] + [
        # finite, but the kick labels' squared amplitudes overflow a double
        (mode, "l1 = 1e200\nl2 = 0.01\nphi = 4.5pi\nn = 2\n")
        for mode in ("walk", "decohere", "cat")
    ] + [("alpha-table", "l1 = 1e200\nl2 = 0.01\nn = 2\n")],
        ids=["l1", "phi", "alpha0", "xi", "omega2", "decay_exponent_nan",
             "decay_exponent_negative", "grid_infinite", "grid_span_overflow",
             "l1_huge_walk", "l1_huge_decohere", "l1_huge_cat", "l1_huge_alpha_table"])
    def test_non_finite_parameter(self, tmp_path, mode, text):
        cfg = write_config(tmp_path, text)
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("xi", ["0.2,0.2000001", "0.2,0.2", "0,-0"])
    def test_xi_values_with_one_file_name_refused(self, tmp_path, xi):
        # each xi names its wigner_xi_<tag> file and diagnostics block
        cfg = write_config(tmp_path, f"l1 = 0.1\nl2 = 0.01\nn = 1\nxi = {xi}\n")
        out = tmp_path / "x"
        assert main(["decohere", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("xi", ["-0.1", "nan", "0,-0.1", "0.2,nan"])
    def test_negative_or_nan_xi_exits_2(self, tmp_path, capsys, xi):
        cfg = write_config(tmp_path, f"l1 = 0.1\nl2 = 0.01\nn = 1\nxi = {xi}\n")
        out = tmp_path / "x"
        assert main(["decohere", "--config", str(cfg), "--out", str(out)]) == 2
        assert "xi must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("taken", ["out", "alpha_table.csv", "report.json"])
    def test_unwritable_outputs_exit_2(self, tmp_path, capsys, taken):
        # --out naming a file fails in mkdir; a directory where a table or
        # the report goes fails in its write
        out = tmp_path / "out"
        if taken == "out":
            out.write_text("")
        else:
            (out / taken).mkdir(parents=True)
        cfg = write_config(tmp_path, "l1 = 0.1\nl2 = 0.01\nn = 1\n")
        assert main(["walk", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write outputs: ")
        assert str(out) in err and "Traceback" not in err

    def test_cancelling_dephased_walk_exits_3(self, tmp_path):
        # l1 = 0 keeps every label at alpha0 and phi = pi/2 makes the two
        # kick branches cancel: the dyad weights have zero trace
        cfg = write_config(tmp_path, "l1 = 0\nl2 = 0.01\nphi = 0.5pi\nn = 3\nxi = 0\n")
        assert main(["decohere", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3

    # At l2 = 0.5 the kick labels lie about l1 from the origin, and the
    # overlap exponent Re(conj(A) B) - (|A|^2 + |B|^2)/2 cancels terms of
    # size l1^2: the rounding left over overflows exp.  At l2 = 0.01, and
    # in cat mode, these l1 exit 0.
    @pytest.mark.parametrize("mode", ["walk", "decohere"])
    @pytest.mark.parametrize("l1", ["1e10", "1e20", "1e100"])
    def test_overflowing_kick_gram_exits_3(self, tmp_path, capsys, mode, l1):
        cfg = write_config(tmp_path, f"l1 = {l1}\nl2 = 0.5\nphi = 0.3\nn = 10\n")
        out = tmp_path / "x"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 3
        assert "kick-label overlaps overflow" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    # At l1 = 1e150 the Gram does not overflow, but the moments cancel terms
    # of size l1^2 = 1e300 to a negative variance: the walk's var_p reads
    # -2.97e284 and the cat's var_x -2.35e254.  Refused, not written.
    @pytest.mark.parametrize("mode, reading", [("walk", "var_p = -2.97403e+284"),
                                               ("cat", "var_x = -2.3461e+254")],
                             ids=["walk", "cat"])
    def test_variances_below_the_uncertainty_bound_exit_3(self, tmp_path, capsys, mode,
                                                          reading):
        cfg = write_config(tmp_path, "l1 = 1e150\nl2 = 0.5\nphi = 0.3\nn = 10\n")
        out = tmp_path / "x"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert reading in err and "below Robertson's bound" in err
        assert not (out / "report.json").exists()

    # At the oracle point's knobs the dyad weights cancel past the floating
    # point floor between n = 40 and 50: the walk's purity reads 17.48 at
    # n = 50 and -9.994e3 at n = 60, and the oracle's fidelities reach 1.626
    # at n = 66.  Such readings are refused, not written.  At n = 40 the
    # purity reads 0.986 and at n = 43 the largest fidelity 1 + 6.3e-6:
    # within [0, 1] up to the margin, so those runs pass.
    FLOOR_WALK = "l1 = 0.015\nl2 = 0.0016250812540627\nphi = 0.25pi\nn = {n}\n"

    @pytest.mark.parametrize("n, purity", [(50, "17.4806"), (60, "-9993.93")])
    def test_walk_purity_past_the_floor_exits_3(self, tmp_path, capsys, n, purity):
        cfg = write_config(tmp_path, self.FLOOR_WALK.format(n=n))
        out = tmp_path / "x"
        assert main(["walk", "--config", str(cfg), "--out", str(out)]) == 3
        assert f"the purity reads {purity}, outside [0, 1]" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_oracle_fidelity_past_the_floor_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ORACLE_CFG.format(n=70, cutoff=200, full="false"))
        out = tmp_path / "x"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 3
        assert "the fidelity at n = 61 reads 1.01258," in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_readings_short_of_the_floor_pass(self, tmp_path):
        cfg = write_config(tmp_path, self.FLOOR_WALK.format(n=40))
        assert main(["walk", "--config", str(cfg), "--out", str(tmp_path / "w")]) == 0
        purity = json.loads((tmp_path / "w" / "report.json").read_text())["diagnostics"]["purity"]
        assert purity == pytest.approx(0.98626, abs=1e-5)
        cfg = write_config(tmp_path, ORACLE_CFG.format(n=43, cutoff=200, full="false"))
        assert main(["oracle-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        fids = np.loadtxt(tmp_path / "o" / "oracle_check.csv", delimiter=",", skiprows=2)[:, 1]
        assert 1 + 1e-6 < fids.max() < 1 + dephasing.UNIT_MARGIN

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

    @pytest.mark.parametrize("mode", MODES)
    def test_oversized_walk_refused_by_estimate(self, tmp_path, monkeypatch, capsys, mode):
        # 2,000,001 kick labels: a 64 TB walk Gram matrix, and every mode
        # shares the walk's n budget.  Never run here, even if the refusal
        # were missing.
        monkeypatch.setattr(cli, "run", None)
        protocol = ("omega = 1.0\ng = 0.01\nomega1 = 16.25\nomega2 = 1.5\n"
                    if mode == "oracle-check" else "l1 = 0.1\nl2 = 0.01\n")
        cfg = write_config(tmp_path, f"{protocol}n = {10**6}\n")
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


def _text(strategy):
    return strategy.map(repr)


def _config_texts(mode):
    """Config text of a mode over the keys it accepts, each drawn on both
    sides of its gate; n, grids and cutoffs small enough to stay fast."""
    knobs = st.fixed_dictionaries({
        "l1": _text(st.one_of(st.floats(0, 2), st.floats(-3, 300).map(lambda e: 10.0 ** e),
                              st.floats(-1, 0))),
        "l2": _text(st.one_of(st.floats(0, 2), st.floats(2, 50))),
        "phi": st.one_of(st.sampled_from(["pi", "+pi", "-pi"]),
                         st.floats(-10, 10).map(lambda k: f"{k!r}pi"), _text(st.floats(-30, 30))),
    })
    # eta = g / omega about its gate 0.05, omega1 / max(omega2, g) about 10 and 100
    rates = st.tuples(st.floats(0.5, 2), st.floats(0, 0.06), st.floats(0, 2),
                      st.floats(5, 200)).map(lambda r: {
                          "omega": repr(r[0]), "g": repr(r[0] * r[1]), "omega2": repr(r[2]),
                          "omega1": repr(r[3] * max(r[2], r[0] * r[1]))})
    half = st.floats(1, 8)
    optional = {
        "format": st.sampled_from(["csv", "json"]),
        "grid": st.tuples(half, half, half, half, st.integers(17, 31), st.integers(17, 31)).map(
            lambda g: f"{-g[0]!r},{g[1]!r},{-g[2]!r},{g[3]!r},{g[4]},{g[5]}"),
        "alpha0": _text(st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))),
        "xi": st.lists(st.one_of(st.floats(0, 5), st.just(math.inf), st.floats(-1, 0)),
                       min_size=1, max_size=3).map(lambda v: ",".join(map(repr, v))),
        "decay_exponent": _text(st.one_of(st.floats(0, 20), st.just(math.inf),
                                          st.floats(-1, 0))),
        "cutoff": _text(st.integers(8, 80)),
        "full_hamiltonian": st.sampled_from(["yes", "no"]),
    }
    spec = MODES[mode]
    protocol = rates if "omega" in spec.requires else st.one_of(
        knobs.map(lambda d: {k: v for k, v in d.items() if k in spec.keys}), rates)
    # n = 0, which cat and oracle-check refuse, comes last: hypothesis favours the first
    n = _text(st.sampled_from([*range(1, 9), 0]))
    keys = st.fixed_dictionaries(
        {"outputs": st.just(",".join(spec.writable)), "n": n},
        optional={k: s for k, s in optional.items() if k in spec.keys})
    return st.tuples(protocol, keys).map(
        lambda parts: "".join(f"{k} = {v}\n" for d in parts for k, v in d.items()))


def _columns(path: Path) -> dict:
    """A written CSV or JSON table of numbers as {column name: values}."""
    if path.suffix == ".json":
        body = json.loads(path.read_text())
        names, rows = body["columns"], body["rows"]
    else:
        lines = path.read_text().splitlines()[1:]
        names, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    return {name: [float(row[i]) for row in rows] for i, name in enumerate(names)}


class TestExitContract:
    """Every accepted config exits 0 with finite diagnostics, purities and
    fidelities in [0, 1] to the backstops' 1e-3, or is refused with exit 2
    (configuration) or 3 (numerical gate); main never raises."""

    @pytest.mark.parametrize("mode", list(MODES))
    @given(data=st.data())
    @settings(deadline=None, max_examples=25)
    def test_exit_codes_and_finite_output(self, mode, data):
        text = data.draw(_config_texts(mode), label="config")
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
            cfg.write_text(text)
            code = main([mode, "--config", str(cfg), "--out", str(out)])
            assert code in (0, 2, 3)
            if code:
                return
            report = json.loads((out / "report.json").read_text())
            # decohere nests one block per xi
            flat = [(k, v) for key, value in report["diagnostics"].items()
                    for k, v in (value.items() if isinstance(value, dict) else [(key, value)])]
            assert all(math.isfinite(v) for _, v in flat), flat
            unit = [v for k, v in flat if k in ("purity", "fidelity_min")]
            for item in report["outputs"]:
                if item["name"] == "oracle_check":
                    unit += [v for name, values in _columns(Path(item["path"])).items()
                             if name.startswith("fidelity") for v in values]
            assert all(-1e-3 <= u <= 1 + 1e-3 for u in unit), unit


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
        tables, _ = MODES[mode].compute(build_config(mode, raw), {"wigner_s": 0.0})
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

    def test_inexact_decimal_ties(self):
        # d.dddddddddddd5 * 10**k held inexactly lies within a rounding of
        # the tie, inside the error of the scaling product: only the
        # fallback window around 1/2 rounds it the way FLOAT_FMT does
        rng = np.random.default_rng(13)
        digits = rng.integers(10**12, 10**13, size=4000).tolist()
        exponents = rng.integers(-290, 290, size=4000).tolist()
        self.check(self.with_neighbours([float(f"{d}5e{k - 13}")
                                         for d, k in zip(digits, exponents)]))

    def test_tie_window_covers_the_product_error(self):
        # s = |v| * 10**(12 - k) is two correctly rounded operations from
        # exact: off by at most (2u + u**2) * s for s < 1e13
        u = 2.0**-53
        assert efmt._TIE > (2 * u + u * u) * 1e13

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
    # start, and the float formatter's tables are built by catwalk.cli alone;
    # the Wigner bands run on plain threads, as concurrent.futures (9 ms to
    # import) and the logging it pulls in would too
    import catwalk

    code = ("import sys, catwalk; print('catwalk.efmt' in sys.modules); import catwalk.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'fractions', 'decimal', 'concurrent', 'logging')))")
    env = dict(os.environ, PYTHONPATH=str(Path(catwalk.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == ["False", "[]"]
