"""SHA-256 of every data file a fixed set of catwalk runs writes.

A refactor must leave every data file byte-identical.  Run this against two
checkouts' sources and diff the outputs:

    python3 tools/data_hashes.py --src ../parent/src --seeds 101-110 > before.txt
    python3 tools/data_hashes.py --src src --seeds 101-110 > after.txt
    diff before.txt after.txt

The runs are every ``configs/*.cfg`` of this checkout, each in csv and in
json with every output its mode can write, and the runs of each benchmark
workload (``bench/workloads.py``) for each seed.  Each run is a fresh
``python -m catwalk.cli`` process, with ``--src`` first on PYTHONPATH, in a
temporary directory of its own.  The output is one line per data file
(case, file name, SHA-256) and one per run with its ``report.json``
warnings, sorted.  The exit status is 1 if any run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def parse_seeds(text: str) -> list:
    """'101-110' or '101,105' (or a mix) -> the seeds in order."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def config_runs(src: Path) -> list:
    """(case, mode, config text) of each shipped config in csv and json,
    its outputs set to every output its mode can write."""
    sys.path.insert(0, str(src))
    from catwalk.cli import MODES, parse_config_file

    runs = []
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        mode = path.stem.replace("_", "-")
        raw = parse_config_file(path)
        raw["outputs"] = ",".join(MODES[mode].writable)
        for fmt in ("csv", "json"):
            text = "".join(f"{k} = {v}\n" for k, v in {**raw, "format": fmt}.items())
            runs.append((f"{path.name}:{fmt}", mode, text))
    return runs


def workload_runs(seeds: list) -> list:
    return [(f"{name}:{seed}:{run.name}", run.mode, run.config_text())
            for name in workloads.WORKLOADS for seed in seeds
            for run in workloads.runs(name, seed)]


def run_case(src: Path, case: str, mode: str, text: str) -> tuple:
    """(output lines, error or None) of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        proc = subprocess.run([sys.executable, "-m", "catwalk.cli", mode, "--config", str(cfg),
                               "--out", str(out)], env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            return [], f"{case}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        lines = [f"{case} {p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}"
                 for p in sorted(out.iterdir()) if p.name != "report.json"]
        warned = json.loads((out / "report.json").read_text())["warnings"]
        lines.append(f"{case} warnings {json.dumps(warned)}")
    return lines, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, help="a checkout's src directory")
    parser.add_argument("--seeds", default="101-110", help="workload seeds, e.g. 101-110")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    lines, errors = [], []
    for case, mode, text in config_runs(src) + workload_runs(parse_seeds(args.seeds)):
        got, error = run_case(src, case, mode, text)
        lines += got
        if error:
            errors.append(error)
    print("\n".join(sorted(lines)))
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
