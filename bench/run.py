"""Benchmark of the catwalk command line: one workload, one seed, one result.

Run from the root of a source checkout (nothing needs installing):

    python3 bench/run.py --workload walk-sweep --seed 1 --seconds 38 --trace 0

The workloads and their checks are in workloads.py.  Fresh processes time
``import catwalk`` plus the first ``np.linalg.eigh`` at the Fock oracle's
matrix size, two before measuring and one after every measured round;
``setup_s`` is their median.  One untimed warm-up pass runs the workload's
configs in this process before the first round.

With ``--trace 0`` each round, repeated for ``--seconds`` seconds, is:

* a warm pass: ``catwalk.cli.build_config`` + ``catwalk.cli.run`` in this
  process for every config; ``sweep_s`` is the median pass;
* a cold pass: every config as a fresh ``python -m catwalk.cli`` process,
  one at a time; ``cold_s`` is the median pass and ``peak_rss_mb`` the
  largest ``ru_maxrss`` of those processes.

With ``--trace 1`` a round is an untraced and a traced warm pass instead
(spans.py); the per-layer metrics are medians over the traced passes and
``trace.overhead_s`` is the traced minus the untraced median pass.

BLAS threads are capped at the number of usable CPUs.  Every run's data
files are checked and hashed; a run fails on an exception, a non-zero exit,
a missing file, a wrong row count, a failed check, or data that differ from
an earlier pass of the same config.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
a record with the machine, versions, drawn parameters, data-file hashes,
every pass and (traced) the spans is written under ``.bench_out/``.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(nproc: int) -> dict:
    """Keep every BLAS thread setting between 1 and nproc, for this process
    and its children.  Must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def machine_record(root: Path, nproc: int, threads: dict) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    commit = None
    if (root / ".git").exists():
        try:
            done = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    return {
        "cpu": cpu, "nproc": nproc, "blas_threads": threads,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "git_commit": commit,
    }


def measure_setup(root: Path, env: dict, dim: int, count: int) -> list:
    """Set-up samples from ``count`` fresh processes, one at a time."""
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), str(dim)],
                              cwd=root, env=env, capture_output=True, text=True,
                              check=True, timeout=120)
        sample = json.loads(done.stdout.splitlines()[-1])
        if not Path(sample["catwalk"]).resolve().is_relative_to(root / "src"):
            raise RuntimeError(f"set-up probe imported catwalk from {sample['catwalk']}")
        samples.append(sample)
    return samples


class Ledger:
    """Counts attempted and failed runs and keeps each config's first hashes.

    Data files are deterministic, so a pass whose files hash the same as the
    first pass of that config gets the first pass's verdict; other files are
    checked in full and also count as failed for differing.
    """

    def __init__(self, refs: dict):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}  # run name -> (hashes, problems)

    @property
    def hashes(self) -> dict:
        return {name: hashes for name, (hashes, _) in self.first.items()}

    def settle(self, label: str, runs, base: Path, errors: dict):
        for run in runs:
            self.attempted += 1
            out = base / run.name
            if run.name in errors:
                problems = [errors[run.name]]
            else:
                hashes = workloads.file_hashes(run, out)
                if run.name not in self.first:
                    self.first[run.name] = (hashes, workloads.check(run, out, self.refs[run.name]))
                first_hashes, problems = self.first[run.name]
                if hashes != first_hashes:
                    problems = workloads.check(run, out, self.refs[run.name]) + [
                        "data files differ from the first pass"]
            if problems:
                self.failed += 1
                self.problems.append(f"{label} {run.name}: " + "; ".join(problems))


def warm_pass(cli, runs, base: Path, tracer=None):
    """Every config through cli.build_config + cli.run in this process.

    Returns (seconds, {run name: error}); output directories are cleared
    first, outside the timed part, so a stale file cannot pass a check.
    """
    elapsed, errors = 0.0, {}
    for run in runs:
        out = base / run.name
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.run = run.name
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.run(cli.build_config(run.mode, run.config(out)))
        except Exception:  # counted as a failed run, with its traceback
            errors[run.name] = traceback.format_exc(limit=4)
        elapsed += time.perf_counter() - t0
    return elapsed, errors


def cold_pass(root: Path, env: dict, runs, base: Path, cfg_dir: Path):
    """Every config as a fresh ``python -m catwalk.cli`` process, one at a time.

    Returns (seconds, {run name: error}, largest child ru_maxrss in KiB).
    """
    elapsed, errors, peak = 0.0, {}, 0
    base.mkdir(parents=True, exist_ok=True)
    for run in runs:
        out = base / run.name
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, "-m", "catwalk.cli", run.mode,
               "--config", str(cfg_dir / f"{run.name}.cfg"), "--out", str(out)]
        log_path = base / f"{run.name}.log"
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed += time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        peak = max(peak, usage.ru_maxrss)
        if proc.returncode != 0:
            tail = log_path.read_text(errors="replace")[-400:]
            errors[run.name] = f"exit code {proc.returncode}: {tail}"
    return elapsed, errors, peak


def alternate(seconds: float, *steps) -> int:
    """Call the steps in turn until another round would overrun ``seconds``;
    always at least one round.  Returns the number of rounds."""
    start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        for step in steps:
            step()
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return rounds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "catwalk" / "__init__.py").is_file():
        print(f"error: no catwalk sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = cap_blas_threads(nproc)
    sys.path.insert(0, str(src))
    import catwalk
    from catwalk import cli

    if not Path(catwalk.__file__).resolve().is_relative_to(src):
        print(f"error: catwalk was imported from {catwalk.__file__}, not {src}",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))

    runs = workloads.runs(args.workload, args.seed)
    refs = {run.name: workloads.reference(run) for run in runs}
    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    cfg_dir = out / "configs"
    cfg_dir.mkdir(parents=True)
    for run in runs:
        (cfg_dir / f"{run.name}.cfg").write_text(run.config_text())

    probes = measure_setup(root, env, 2 * workloads.ORACLE_CUTOFF, 2)
    ledger = Ledger(refs)
    ledger.settle("warm-up", runs, out / "warm", warm_pass(cli, runs, out / "warm")[1])

    warm_s, cold_s, traced_s, traced, peaks_kib = [], [], [], [], []

    def warm():
        seconds, errors = warm_pass(cli, runs, out / "warm")
        warm_s.append(seconds)
        ledger.settle("warm", runs, out / "warm", errors)

    def cold():
        seconds, errors, peak = cold_pass(root, env, runs, out / "cold", cfg_dir)
        cold_s.append(seconds)
        peaks_kib.append(peak)
        ledger.settle("cold", runs, out / "cold", errors)

    tracer = spans.Tracer()

    def traced_warm():
        tracer.install(catwalk)
        try:
            seconds, errors = warm_pass(cli, runs, out / "traced", tracer)
        finally:
            tracer.remove()
        traced_s.append(seconds)
        traced.append((tracer.spans, dict(tracer.calls)))
        ledger.settle("traced", runs, out / "traced", errors)

    def setup():
        probes.extend(measure_setup(root, env, 2 * workloads.ORACLE_CUTOFF, 1))

    rounds = alternate(args.seconds, warm, traced_warm if args.trace else cold, setup)

    setup_total = [p["import_s"] + p["lapack_first_s"] for p in probes]
    consistent = True
    if args.trace:
        per_pass = [spans.pass_metrics(s, c) for s, c in traced]
        metrics = spans.median_metrics(per_pass)
        for name, (_, unit) in metrics.items():
            if unit in ("count", "flop", "byte") and len({p[name][0] for p in per_pass}) > 1:
                consistent = False
                ledger.problems.append(f"{name} differs between traced passes")
        metrics["setup.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
        metrics["setup.lapack_first_s"] = (
            statistics.median(p["lapack_first_s"] for p in probes), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(traced_s) - statistics.median(warm_s), "s")
    else:
        metrics = {
            "sweep_s": (statistics.median(warm_s), "s"),
            "cold_s": (statistics.median(cold_s), "s"),
            "peak_rss_mb": (max(peaks_kib) / 1024, "MiB"),
            "setup_s": (statistics.median(setup_total), "s"),
        }

    params = dataclasses.asdict(workloads.draw(args.seed))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {rounds}  params {params}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    failed_share = ledger.failed / ledger.attempted
    print(f"{'failed_share':44s} {failed_share:.6g} share "
          f"({ledger.failed} of {ledger.attempted} runs)")
    print(f"passes: warm {len(warm_s)}, cold {len(cold_s)}, traced {len(traced_s)}; "
          f"set-up probes {len(probes)}")
    if args.trace:
        print(f"walk chain components by n: {spans.components_by_n(traced[0][0])}")
        same = all(workloads.file_hashes(r, out / "traced" / r.name) == ledger.hashes[r.name]
                   for r in runs)
        print(f"traced data files identical to untraced: {same}")
    for missing in tracer.missing:
        print(f"warning: trace target {missing} not found; its metrics read 0")
    for problem in ledger.problems:
        print(f"FAILED {problem}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "params": params,
        "runs": [{"name": r.name, "mode": r.mode, "config": dict(r.raw)} for r in runs],
        "machine": machine_record(root, nproc, threads),
        "setup_probes": probes,
        "passes": {"warm_s": warm_s, "cold_s": cold_s, "traced_s": traced_s},
        "hashes": ledger.hashes, "problems": ledger.problems, "failed_share": failed_share,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    if traced:
        with open(out / "spans.jsonl", "w") as f:
            for index, (pass_spans, _) in enumerate(traced):
                for span in pass_spans:
                    f.write(json.dumps({"pass": index, **dataclasses.asdict(span)}) + "\n")
    for data in ("warm", "cold", "traced"):
        shutil.rmtree(out / data, ignore_errors=True)
    print(f"record: {out / 'record.json'}")

    print(json.dumps({
        "correct": ledger.failed == 0 and consistent,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
