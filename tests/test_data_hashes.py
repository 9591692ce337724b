"""tools/data_hashes.py: the byte-identity check every refactor is diffed with."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import catwalk
from catwalk.cli import MODES, main, parse_config_file

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(catwalk.__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("data_hashes", ROOT / "tools" / "data_hashes.py")
data_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(data_hashes)


def test_parse_seeds():
    assert data_hashes.parse_seeds("101-103,105") == [101, 102, 103, 105]


def test_config_runs_cover_every_config_format_and_output(tmp_path):
    runs = data_hashes.config_runs(SRC)
    configs = sorted((ROOT / "configs").glob("*.cfg"))
    assert [case for case, _, _ in runs] == [f"{p.name}:{fmt}" for p in configs
                                             for fmt in ("csv", "json")]
    for case, mode, text in runs:
        (tmp_path / "run.cfg").write_text(text)
        raw = parse_config_file(tmp_path / "run.cfg")
        assert mode == case.split(".cfg")[0].replace("_", "-")
        assert raw["outputs"] == ",".join(MODES[mode].writable)
        assert raw["format"] == case.rsplit(":", 1)[1]


# The data files each case writes: one per output, and in decohere one
# wigner and one diagnostics table per xi.
FILES = {"alpha_table.cfg:csv": 1, "cat.cfg:json": 3, "decohere.cfg:csv": 8}


@pytest.mark.parametrize("case", FILES)
def test_run_case_hashes_each_data_file_and_the_warnings(tmp_path, case):
    # a table mode in csv, a density mode, the cat's one conditioning step,
    # through the JSON writer, and the dephased walk at each of its xi
    case, mode, text = next(run for run in data_hashes.config_runs(SRC) if run[0] == case)
    lines, error = data_hashes.run_case(SRC, case, mode, text)
    (tmp_path / "run.cfg").write_text(text)
    out = tmp_path / "out"
    assert main([mode, "--config", str(tmp_path / "run.cfg"), "--out", str(out)]) == 0
    files = sorted(p for p in out.iterdir() if p.name != "report.json")
    assert error is None
    assert json.loads((out / "report.json").read_text())["warnings"] == []
    assert [p.suffix for p in files] == [f".{case.rsplit(':', 1)[1]}"] * FILES[case]
    assert lines == [f"{case} {p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}"
                     for p in files] + [f"{case} warnings []"]
