import hashlib
import json
import math
import os
import subprocess
import sys
from math import pi
from pathlib import Path

import numpy as np
import pytest

from catwalk.cli import (
    FLOAT_FMT,
    Table,
    _write_table,
    alpha_table,
    build_config,
    main,
    parse_angle,
    parse_config_file,
    parse_grid,
)
from catwalk import fock, observables
from catwalk.errors import ConfigError
from catwalk.protocol import ProtocolParams


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

    def test_xi_list_only_in_decohere(self):
        with pytest.raises(ConfigError):
            build_config("walk", {"xi": "0,0.2"})
        cfg = build_config("decohere", {"xi": "0,0.2", "n": "2"})
        assert cfg.xi_values == (0.0, 0.2)


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


ORACLE_CFG = (f"omega = 1.0\ng = 0.01\nomega1 = {16.25 / (1 - 1e-4 / 2)}\n"
              "omega2 = 1.5\nn = {n}\ncutoff = {cutoff}\nfull_hamiltonian = {full}\n")


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
            "fidelity_min", "l1", "l2", "leakage_max", "phi", "xi"]

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


def test_cli_import_leaves_scipy_out():
    import catwalk

    code = "import sys, catwalk.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=str(Path(catwalk.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
