"""Seeded workloads of the catwalk benchmark and the checks on their outputs.

A workload is a fixed list of CLI runs.  The seed draws only parameter
values (l1, l2, the drive phase and the oracle's weak drive), all inside the
model's validity gates; it never changes n, the grid, the xi list or the
Fock cutoff, so every per-layer count is the same for every seed.

Why these three workloads:

* ``walk-sweep``: the pure-state path at n = 1, 5, 10 (the values
  configs/walk.cfg names), CSV.  The conditioned-walk chain
  (``protocol.run_conditioned_walk``, 2**n components, and
  ``algebra.overlap``) dominates.  n = 20 is left out because the chain does
  not finish in a benchmark run there (n = 12 alone takes tens of seconds).
* ``decohere-json``: the mixed-state path at n = 20 and four xi values,
  JSON.  ``observables.wigner_mixed`` on 201**2 plus the 401**2 refinement
  dominates; it uses the dephasing recursion and never the chain or fock.
* ``oracle-fock``: the truncated-Fock cross-check at n = 10, cutoff 160.
  Almost all time is in ``fock`` (320 x 320 eigendecompositions); it is the
  no-change control for observables, dephasing and the chain.

The checks read the written files back with plain Python and compare them
with values computed by code paths other than the ones being timed.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("walk-sweep", "decohere-json", "oracle-fock")

WALK_NS = (1, 5, 10)
WALK_OUTPUTS = "alpha-table,pdist,wigner,diagnostics"
DECOHERE_N = 20
DECOHERE_XI = (0.0, 0.2, 0.5, 1.0)
ORACLE_N = 10
ORACLE_CUTOFF = 160
GRID_POINTS = 201  # the CLI's default grid, per axis

# The oracle's fixed physical parameters (configs/oracle_check.cfg).
ORACLE_OMEGA = 1.0
ORACLE_G = 0.01
ORACLE_OMEGA1 = 16.250812540627032

RIEMANN_TOL = 1e-5           # measured deviations are below 2e-7
RECORD_REL_TOL = 1e-7        # measured disagreement is below 5e-10 at n = 10
PURITY_TOL = 1e-5            # cancellation floor at n = 20 is near 1e-6
FIDELITY_MIN = 0.999999


@dataclass(frozen=True)
class Params:
    """Parameter values drawn from one seed."""

    l1: float
    l2: float
    phi_halves: int   # phi = phi_halves * pi / 2, always odd
    omega2: float

    @property
    def phi(self) -> str:
        return f"{self.phi_halves / 2:g}pi"


def draw(seed: int) -> Params:
    """Parameters for one seed; the same seed always gives the same values.

    omega2 stays at or below 1.6 so that Omega1/Omega2 keeps above the hard
    hierarchy gate of 10, and the oracle fidelity stays above FIDELITY_MIN.
    """
    rng = random.Random(seed)
    return Params(
        l1=round(rng.uniform(0.08, 0.12), 6),
        l2=round(rng.uniform(0.008, 0.012), 6),
        phi_halves=rng.choice((1, 3, 5, 7, 9)),
        omega2=round(rng.uniform(1.2, 1.6), 6),
    )


@dataclass(frozen=True)
class Run:
    """One CLI invocation: a mode and its config keys, without ``out``."""

    name: str
    mode: str
    raw: tuple  # ((key, value text), ...)

    def config(self, out) -> dict:
        return dict(self.raw, out=str(out))

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.raw)


def runs(workload: str, seed: int) -> list:
    """The run list of a workload for one seed."""
    p = draw(seed)
    kick = (("l1", repr(p.l1)), ("l2", repr(p.l2)), ("phi", p.phi))
    if workload == "walk-sweep":
        return [
            Run(f"walk-n{n}", "walk",
                kick + (("n", str(n)), ("outputs", WALK_OUTPUTS)))
            for n in WALK_NS
        ]
    if workload == "decohere-json":
        xi = ",".join(f"{x:g}" for x in DECOHERE_XI)
        return [Run(f"decohere-n{DECOHERE_N}", "decohere",
                    kick + (("n", str(DECOHERE_N)), ("xi", xi),
                            ("format", "json"), ("outputs", "wigner,diagnostics")))]
    if workload == "oracle-fock":
        return [Run(f"oracle-n{ORACLE_N}", "oracle-check", (
            ("omega", repr(ORACLE_OMEGA)), ("g", repr(ORACLE_G)),
            ("omega1", repr(ORACLE_OMEGA1)), ("omega2", repr(p.omega2)),
            ("n", str(ORACLE_N)), ("cutoff", str(ORACLE_CUTOFF)),
        ))]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def reference(run: Run) -> dict:
    """Values the checks compare against, computed apart from the timed path.

    For a walk run this is the all-ground record probability in closed form,
    4**-n * ||sum_m binom(n, m) e^{i(n-2m)phi} |alpha_{n-2m}>||**2, rebuilt
    from ``walk_components`` and ``norm_squared`` instead of the per-cycle
    measurement chain the CLI reports.
    """
    if run.mode != "walk":
        return {}
    from catwalk.algebra import SuperposedState, norm_squared
    from catwalk.cli import parse_angle
    from catwalk.protocol import ProtocolParams, walk_components

    raw = dict(run.raw)
    n = int(raw["n"])
    pp = ProtocolParams(float(raw["l1"]), float(raw["l2"]), parse_angle(raw["phi"]), n)
    return {"record_probability": norm_squared(SuperposedState(tuple(walk_components(pp)))) / 4**n}


def read_table(path):
    """(columns, rows) of a CSV or JSON table the CLI wrote; cells stay text."""
    text = path.read_text()
    if path.suffix == ".json":
        body = json.loads(text)
        return body["columns"], [[str(v) for v in row] for row in body["rows"]]
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError(f"{path.name}: missing header comment")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def _riemann(values, *axes) -> float:
    step = 1.0
    for axis in axes:
        ordered = sorted(set(axis))
        step *= (ordered[-1] - ordered[0]) / (len(ordered) - 1)
    return math.fsum(values) * step


def _xi_tag(xi: str) -> str:
    """The CLI's file-name tag for one xi value."""
    return ("%g" % float(xi)).replace("-", "m")


def _expected_tables(run: Run) -> dict:
    """File stem -> expected row count."""
    raw = dict(run.raw)
    n = int(raw["n"])
    grid = GRID_POINTS * GRID_POINTS
    if run.mode == "walk":
        return {"alpha_table": 2 * n + 1, "pdist": GRID_POINTS, "wigner": grid,
                "diagnostics": 9}
    if run.mode == "decohere":
        out = {}
        for xi in raw["xi"].split(","):
            out[f"wigner_xi_{_xi_tag(xi)}"] = grid
            out[f"diagnostics_xi_{_xi_tag(xi)}"] = 8
        return out
    return {"oracle_check": n}


def file_hashes(run: Run, out_dir) -> dict:
    """SHA-256 of every data file the run should have written (None if missing)."""
    out = {}
    for path in _expected_paths(run, out_dir):
        try:
            out[path.stem] = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            out[path.stem] = None
    return out


def _expected_paths(run: Run, out_dir):
    ext = ".json" if dict(run.raw).get("format") == "json" else ".csv"
    return [out_dir / (stem + ext) for stem in _expected_tables(run)]


def check(run: Run, out_dir, ref: dict) -> list:
    """Check the data files of one finished run; returns what is wrong
    (an empty list when the outputs are correct)."""
    problems, tables = [], {}
    for path, nrows in zip(_expected_paths(run, out_dir), _expected_tables(run).values()):
        stem = path.stem
        try:
            columns, rows = read_table(path)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{stem}: unreadable ({exc})")
            continue
        if len(rows) != nrows:
            problems.append(f"{stem}: {len(rows)} rows, expected {nrows}")
            continue
        tables[stem] = {c: [row[i] for row in rows] for i, c in enumerate(columns)}
    if problems:
        return problems

    def floats(stem, col):
        return [float(v) for v in tables[stem][col]]

    def near_one(what, value, tol):
        if not abs(value - 1.0) <= tol:
            problems.append(f"{what} = {value!r}, expected 1 within {tol:g}")

    for stem in tables:
        if stem.startswith("wigner"):
            near_one(f"{stem} Riemann sum",
                     _riemann(floats(stem, "w"), floats(stem, "x"), floats(stem, "p")),
                     RIEMANN_TOL)
    if run.mode == "walk":
        near_one("pdist Riemann sum",
                 _riemann(floats("pdist", "density"), floats("pdist", "x")), RIEMANN_TOL)
        diag = dict(zip(tables["diagnostics"]["key"], floats("diagnostics", "value")))
        got, want = diag.get("success_probability", math.nan), ref["record_probability"]
        if not abs(got - want) <= RECORD_REL_TOL * want:
            problems.append(f"record probability {got!r}, closed form {want!r}")
    elif run.mode == "decohere":
        purities = []
        for xi in dict(run.raw)["xi"].split(","):
            stem = "diagnostics_xi_" + _xi_tag(xi)
            diag = dict(zip(tables[stem]["key"], floats(stem, "value")))
            purities.append(diag.get("purity", math.nan))
        near_one("purity at xi = 0", purities[0], PURITY_TOL)  # DECOHERE_XI starts at 0
        if any(not b <= a + PURITY_TOL for a, b in zip(purities, purities[1:])):
            problems.append(f"purity increases with xi: {purities}")
    else:
        fid = min(floats("oracle_check", "fidelity"))
        if not fid >= FIDELITY_MIN:
            problems.append(f"oracle fidelity_min {fid!r} < {FIDELITY_MIN}")
    return problems
