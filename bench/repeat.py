"""Run the benchmark over workloads and seeds and summarise each metric.

Usage (from the repository root):

    python3 bench/repeat.py --seeds 1-10 --seconds 38 --trace 0 [--json out.json]
                            [--workload walk-sweep,decohere-json,oracle-fock]

Every workload (all three by default) runs once per seed, one run at a
time.  For every metric it prints the median, the first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  ``--json`` also writes
the summaries, the attempted and failed run counts and the machine record
of the first run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def repeat(workload: str, seeds, seconds: float, trace: int) -> dict:
    results, machine = [], None
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n"
                     f"{done.stdout}{done.stderr}")
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        results.append(result)
        if machine is None:
            record = next(line for line in lines if line.startswith("record: "))
            machine = json.loads(Path(record[len("record: "):]).read_text())["machine"]
        print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    summary = {"seeds": list(seeds), "seconds": seconds, "trace": trace,
               "correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "machine": machine, "metrics": {}}
    for name, first in results[0]["metrics"].items():
        stats = summarise([r["metrics"][name]["value"] for r in results])
        summary["metrics"][name] = {"unit": first["unit"], **stats}
        print(f"{workload} {name:44s} median {stats['median']:.6g} {first['unit']}  "
              f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.3f}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=",".join(workloads.WORKLOADS),
                        help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write the summaries here")
    args = parser.parse_args(argv)

    seeds = seed_list(args.seeds)
    out = {w: repeat(w, seeds, args.seconds, args.trace) for w in args.workload.split(",")}
    if args.json:
        args.json.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
