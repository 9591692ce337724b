"""Command-line front end: config-driven runs with figure-ready data files.

Subcommands: walk | cat | decohere | oracle-check | alpha-table.  Each is
one entry of ``MODES``: the function that computes its tables and
diagnostics, the outputs it writes by default, and the outputs it can write
at all (requesting any other is a configuration error).  ``run`` writes the
tables the config's ``outputs`` select and the report.

Configs are flat ``key = value`` text files ('#' starts a comment); the
flags --out, --format and --grid override file values.  Angles accept a
"pi" suffix ("4.5pi", "-0.5pi", "pi"); everything else is plain floats,
complex literals ("0.3+0.1j") for alpha0, and comma lists where noted.
Outputs are CSV by default (one '#' header comment, a column-name row, then
data rows with fixed scientific formatting) or a JSON mirror of the same
table; identical configs produce byte-identical data files.  A report.json
accompanies every run with the echoed config, diagnostics, file checksums,
warnings, and wall time (the report's wall-time field is the one
non-reproducible output).

Exit codes: 0 success, 2 configuration error, 3 numerical-gate failure
(Fock leakage, degenerate superposition, zero-probability outcome).
"""

import argparse
import hashlib
import json
import math
import sys
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dephasing import cat_density, projector, walk_density
from .errors import (
    ConfigError,
    CutoffTooSmall,
    DegenerateState,
    ZeroProbabilityOutcome,
)
from .observables import (
    WIGNER_BUDGET_BYTES,
    GridField,
    PhaseSpaceGrid,
    default_grid,
    diagnostics,
    grid_for,
    position_density,
    wigner_bytes,
    wigner_mixed,
)
from .protocol import (
    PhysicalParams,
    ProtocolParams,
    cat_state,
    cat_success_probability,
    derive_protocol,
    kick_labels,
    walk_record_probabilities,
    walk_state,
)
from . import fock

FLOAT_FMT = "%.12e"


def parse_angle(text: str) -> float:
    """Parse '4.5pi', '-0.5pi', 'pi', or a plain float, to radians."""
    s = str(text).strip().lower()
    if s.endswith("pi"):
        head = s[:-2].strip()
        if head in ("", "+"):
            return math.pi
        if head == "-":
            return -math.pi
        try:
            return float(head) * math.pi
        except ValueError:
            raise ConfigError(f"cannot parse angle {text!r}") from None
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"cannot parse angle {text!r}") from None


def parse_grid(text: str) -> PhaseSpaceGrid:
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 6:
        raise ConfigError("grid must be 'xmin,xmax,pmin,pmax,nx,np'")
    try:
        return PhaseSpaceGrid(
            float(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]),
            int(parts[4]), int(parts[5]),
        )
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad grid specification: {exc}") from None


def parse_config_file(path) -> dict:
    """Read a flat key = value file; '#' starts a comment, blank lines skip."""
    data = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        data[key.strip().lower().replace("-", "_")] = value.strip()
    return data


def _parse_bool(text) -> bool:
    s = str(text).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


@dataclass
class ExperimentConfig:
    """Resolved run configuration (all defaults applied)."""

    mode: str
    output_dir: Path
    fmt: str = "csv"
    grid: PhaseSpaceGrid = field(default_factory=default_grid)
    outputs: tuple = ()
    # dimensionless protocol knobs
    l1: float = 0.0
    l2: float = 0.0
    phi: float = 0.0
    n: int = 0
    xi_values: tuple = (0.0,)
    alpha0: complex = 0j
    decay_exponent: float = 0.0
    # physical parameters (used when derive=true, and by oracle-check)
    derive: bool = False
    omega: float | None = None
    g: float | None = None
    omega1: float | None = None
    omega2: float | None = None
    gamma: float = 0.0
    cutoff: int = fock.DEFAULT_CUTOFF
    full_hamiltonian: bool = False

    def physical(self) -> PhysicalParams:
        missing = [k for k in ("omega", "g", "omega1", "omega2")
                   if getattr(self, k) is None]
        if missing:
            raise ConfigError(f"missing physical parameters: {', '.join(missing)}")
        return PhysicalParams(self.omega, self.g, self.omega1, self.omega2, self.gamma)

    def protocol(self, xi: float | None = None) -> ProtocolParams:
        if self.derive:
            pp = derive_protocol(self.physical(), self.n, self.alpha0)
            return pp if xi is None else replace(pp, xi=xi)
        return ProtocolParams(
            self.l1, self.l2, self.phi, self.n,
            self.xi_values[0] if xi is None else xi, self.alpha0,
        )


def _check_cutoff(cutoff: int):
    """Refuse a Fock cutoff the leakage gate cannot use or whose propagators
    would not fit in ``fock.PROPAGATOR_BUDGET_BYTES``."""
    if cutoff <= fock.LEAKAGE_LEVELS:
        raise ConfigError(f"cutoff must exceed the {fock.LEAKAGE_LEVELS} "
                          f"Fock levels the leakage gate watches; got {cutoff}")
    need = fock.propagator_bytes(cutoff)
    if need > fock.PROPAGATOR_BUDGET_BYTES:
        raise ConfigError(f"cutoff {cutoff} needs {need:,} bytes of propagators, "
                          f"over the budget of {fock.PROPAGATOR_BUDGET_BYTES:,}")


def _check_grid(grid: PhaseSpaceGrid):
    """Refuse a grid whose Wigner evaluation would not fit in
    ``observables.WIGNER_BUDGET_BYTES``."""
    need = wigner_bytes(grid)
    if need > WIGNER_BUDGET_BYTES:
        raise ConfigError(f"grid {grid.nx}x{grid.np} needs {need:,} bytes for its "
                          "Wigner function and the 2x refinement, over the budget "
                          f"of {WIGNER_BUDGET_BYTES:,}")


def build_config(mode: str, raw: dict) -> ExperimentConfig:
    """Validate a raw key-value mapping against the selected mode."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    known = {
        "mode", "out", "format", "grid", "outputs",
        "l1", "l2", "phi", "n", "xi", "alpha0", "decay_exponent",
        "derive", "omega", "g", "omega1", "omega2", "gamma", "cutoff",
        "full_hamiltonian",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "mode" in raw and raw["mode"] != mode:
        raise ConfigError(
            f"config says mode = {raw['mode']!r} but {mode!r} was requested"
        )

    cfg = ExperimentConfig(mode=mode, output_dir=Path(raw.get("out", ".")))
    try:
        if "format" in raw:
            if raw["format"] not in ("csv", "json"):
                raise ConfigError("format must be 'csv' or 'json'")
            cfg.fmt = raw["format"]
        if "grid" in raw:
            cfg.grid = parse_grid(raw["grid"])
            _check_grid(cfg.grid)
        if "l1" in raw:
            cfg.l1 = float(raw["l1"])
        if "l2" in raw:
            cfg.l2 = float(raw["l2"])
        if "phi" in raw:
            cfg.phi = parse_angle(raw["phi"])
        if "n" in raw:
            cfg.n = int(raw["n"])
        if "xi" in raw:
            cfg.xi_values = tuple(float(v) for v in str(raw["xi"]).split(","))
        if "alpha0" in raw:
            cfg.alpha0 = complex(str(raw["alpha0"]).replace(" ", ""))
        if "decay_exponent" in raw:
            cfg.decay_exponent = float(raw["decay_exponent"])
        if "derive" in raw:
            cfg.derive = _parse_bool(raw["derive"])
        for key in ("omega", "g", "omega1", "omega2", "gamma"):
            if key in raw:
                setattr(cfg, key, float(raw[key]))
        if "cutoff" in raw:
            cfg.cutoff = int(raw["cutoff"])
            _check_cutoff(cfg.cutoff)
        if "full_hamiltonian" in raw:
            cfg.full_hamiltonian = _parse_bool(raw["full_hamiltonian"])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from None

    writable = MODES[mode].writable
    requested = raw.get("outputs")
    if requested:
        cfg.outputs = tuple(s.strip() for s in requested.split(",") if s.strip())
        bad = set(cfg.outputs) - set(writable)
        if bad:
            raise ConfigError(f"{mode} cannot write {', '.join(sorted(bad))}; "
                              f"it writes {', '.join(writable)}")
    else:
        cfg.outputs = MODES[mode].defaults

    if mode == "oracle-check" and not cfg.derive:
        cfg.derive = True  # oracle mode is inherently physical-parameter driven
    if mode in ("walk", "cat") and len(cfg.xi_values) > 1:
        raise ConfigError("xi lists are only supported in decohere mode")
    if mode == "cat" and cfg.n < 1:
        raise ConfigError("cat mode needs n >= 1")
    if not cfg.decay_exponent >= 0.0:  # also refuses NaN; inf is full suppression
        raise ConfigError("decay_exponent must be non-negative")
    # Build the parameter objects once so that out-of-range or non-finite
    # values are refused here; run() rebuilds them and records the warnings.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for xi in cfg.xi_values:
                cfg.protocol(xi=xi)
    except ValueError as exc:
        raise ConfigError(f"bad parameter: {exc}") from None
    return cfg


@dataclass
class RunReport:
    """Summary of one run: echoed config, diagnostics, emitted files."""

    mode: str
    config: dict
    diagnostics: dict
    outputs: list
    warnings: list
    wall_time_s: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "mode": self.mode,
                "config": self.config,
                "diagnostics": self.diagnostics,
                "outputs": self.outputs,
                "warnings": self.warnings,
                "wall_time_s": self.wall_time_s,
            },
            indent=2,
            sort_keys=True,
            default=str,
        )


@dataclass(frozen=True)
class Table:
    """One data file: its name, the output that selects it, a header comment
    and equally long columns (float, int or str) in file order."""

    name: str
    output: str
    comment: str
    columns: dict

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values())))


def _cell(kind: str, fmt: str) -> str:
    if kind == "f":
        return FLOAT_FMT if fmt == "csv" else f'"{FLOAT_FMT}"'
    return "%d" if kind in "iu" else "%s"


def _render(table: Table, fmt: str) -> str:
    """File text of a table: one row template, filled for every row by a
    single % operation.  JSON has the layout of
    ``json.dumps(body, indent=2, sort_keys=True)``."""
    cols = [np.asarray(c) for c in table.columns.values()]
    cells = [_cell(c.dtype.kind, fmt) for c in cols]
    values = [c.tolist() for c in cols]
    if fmt == "json":
        values = [[json.dumps(v) for v in vs] if c.dtype.kind == "U" else vs
                  for c, vs in zip(cols, values)]
    flat = tuple(v for row in zip(*values) for v in row)
    n_rows = table.n_rows
    if fmt == "csv":
        row = ",".join(cells) + "\n"
        return f"# {table.comment}\n{','.join(table.columns)}\n" + (row * n_rows) % flat
    head = json.dumps({"columns": list(table.columns), "comment": table.comment,
                       "rows": []}, indent=2, sort_keys=True)
    row = "    [\n" + ",\n".join("      " + c for c in cells) + "\n    ]"
    rows = "[\n" + ",\n".join([row] * n_rows) % flat + "\n  ]" if n_rows else "[]"
    return head[:-len("[]\n}")] + rows + "\n}\n"


def _write_table(path: Path, table: Table, fmt: str) -> dict:
    """Write one table deterministically; returns its report entry."""
    payload = _render(table, fmt)
    path.write_text(payload, newline="\n")
    return {"name": table.name, "path": str(path),
            "sha256": hashlib.sha256(payload.encode()).hexdigest(),
            "rows": table.n_rows}


def alpha_table(pp: ProtocolParams) -> Table:
    """Kick-recursion labels (j, Re alpha_j, Im alpha_j, theta_j), j = -n..n."""
    labels = kick_labels(pp.l1, pp.l2, pp.alpha0, pp.n)
    js = range(-pp.n, pp.n + 1)
    return Table("alpha_table", "alpha-table",
                 "kick-recursion labels; columns: j, re_alpha, im_alpha, theta", {
                     "j": list(js),
                     "re_alpha": [labels[j].amplitude.real for j in js],
                     "im_alpha": [labels[j].amplitude.imag for j in js],
                     "theta": [labels[j].phase for j in js],
                 })


def _pdist_table(state, grid: PhaseSpaceGrid) -> Table:
    dens = position_density(state, grid)
    return Table("pdist", "pdist",
                 f"position probability density; riemann_sum = {dens.norm:.12e}; "
                 "columns: x, density",
                 {"x": grid.x_axis(), "density": dens.values})


def _xi_tag(xi: float) -> str:
    return ("%g" % xi).replace("-", "m")


def _wigner_table(W: GridField, xi: float | None = None) -> Table:
    """Wigner values row-major in x; per-xi name and comment in decohere."""
    name, at = "wigner", ""
    if xi is not None:
        name, at = f"wigner_xi_{_xi_tag(xi)}", f" at xi = {xi:g}"
    x, p = W.grid.x_axis(), W.grid.p_axis()
    return Table(name, "wigner",
                 f"wigner function{at}; riemann_sum = {W.norm:.12e}; columns: x, p, w",
                 {"x": np.repeat(x, len(p)), "p": np.tile(p, len(x)),
                  "w": W.values.ravel()})


def _diagnostics_table(diag: dict, key: str | None = None) -> Table:
    name, at = "diagnostics", ""
    if key is not None:
        name, at = f"diagnostics_{key}", f" at {key}"
    keys = sorted(diag)
    return Table(name, "diagnostics", f"scalar diagnostics{at}; columns: key, value",
                 {"key": keys, "value": [float(diag[k]) for k in keys]})


def _clean(diag: dict) -> dict:
    return {k: float(v) for k, v in diag.items()}


# Each mode computes its tables and its diagnostics; run() writes the tables
# that cfg.outputs selects.


def _walk(cfg: ExperimentConfig):
    pp = cfg.protocol()
    state = walk_state(pp)
    rho = projector(state)
    grid = grid_for(rho, cfg.grid)
    W = wigner_mixed(rho, grid)
    diag = _clean(diagnostics(rho, W))
    diag["success_probability"], _ = walk_record_probabilities(pp)
    tables = [alpha_table(pp), _pdist_table(state, grid), _wigner_table(W),
              _diagnostics_table(diag)]
    return tables, diag


def _cat(cfg: ExperimentConfig):
    pp = cfg.protocol()
    rho = cat_density(pp, math.exp(-cfg.decay_exponent))
    grid = grid_for(rho, cfg.grid)
    W = wigner_mixed(rho, grid)
    diag = _clean(diagnostics(rho, W))
    diag["success_probability"] = cat_success_probability(pp)
    return [_pdist_table(cat_state(pp), grid), _wigner_table(W),
            _diagnostics_table(diag)], diag


def _decohere(cfg: ExperimentConfig):
    tables, diag = [], {}
    for xi in cfg.xi_values:
        rho = walk_density(cfg.protocol(xi=xi))
        W = wigner_mixed(rho, grid_for(rho, cfg.grid))
        diag[f"xi_{_xi_tag(xi)}"] = _clean(diagnostics(rho, W))
        tables.append(_wigner_table(W, xi))
    tables += [_diagnostics_table(diag[key], key) for key in sorted(diag)]
    return tables, diag


def _oracle_check(cfg: ExperimentConfig):
    phys = cfg.physical()
    ns = list(range(1, cfg.n + 1))
    fids, probs, leak_max = fock.closed_form_walk_fidelities(
        phys, cfg.n, cfg.alpha0, cfg.cutoff)
    columns = {"n": ns, "fidelity": fids,
               "record_probability": [math.prod(probs[:k]) for k in ns]}
    if cfg.full_hamiltonian:
        columns["fidelity_full"], _, leak_full = fock.closed_form_walk_fidelities(
            phys, cfg.n, cfg.alpha0, cfg.cutoff, hamiltonian="full")
        leak_max = max(leak_max, leak_full)
    fid_min = min([1.0] + fids)
    pp = derive_protocol(phys, cfg.n, cfg.alpha0)
    diag = {"fidelity_min": fid_min, "leakage_max": leak_max,
            "l1": pp.l1, "l2": pp.l2, "phi": pp.phi, "xi": pp.xi}
    print(f"oracle-check: min closed-form fidelity over n=1..{cfg.n}: {fid_min:.9f}")
    table = Table("oracle_check", "oracle-table",
                  "closed form vs matrix evolution; columns: " + ", ".join(columns),
                  columns)
    return [table, _diagnostics_table(diag)], diag


def _alpha_table(cfg: ExperimentConfig):
    return [alpha_table(cfg.protocol())], {}


@dataclass(frozen=True)
class Mode:
    """A subcommand: its computation and the outputs it writes."""

    compute: Callable  # ExperimentConfig -> (list of Table, diagnostics dict)
    defaults: tuple
    writable: tuple


MODES = {
    "walk": Mode(_walk, ("alpha-table", "pdist", "diagnostics"),
                 ("alpha-table", "pdist", "wigner", "diagnostics")),
    "cat": Mode(_cat, ("pdist", "wigner", "diagnostics"),
                ("pdist", "wigner", "diagnostics")),
    "decohere": Mode(_decohere, ("wigner", "diagnostics"), ("wigner", "diagnostics")),
    "oracle-check": Mode(_oracle_check, ("oracle-table",), ("oracle-table", "diagnostics")),
    "alpha-table": Mode(_alpha_table, ("alpha-table",), ("alpha-table",)),
}


def run(cfg: ExperimentConfig) -> RunReport:
    """Execute one configured run and write the requested artifacts."""
    t0 = time.perf_counter()
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tables, diag = MODES[cfg.mode].compute(cfg)
    artifacts = [_write_table(cfg.output_dir / f"{t.name}.{cfg.fmt}", t, cfg.fmt)
                 for t in tables if t.output in cfg.outputs]
    report = RunReport(
        mode=cfg.mode,
        config=_echo_config(cfg),
        diagnostics=diag,
        outputs=artifacts,
        warnings=[str(w.message) for w in caught],
        wall_time_s=time.perf_counter() - t0,
    )
    (cfg.output_dir / "report.json").write_text(report.to_json() + "\n", newline="\n")
    return report


def _echo_config(cfg: ExperimentConfig) -> dict:
    out = {}
    for key, value in vars(cfg).items():
        if key == "grid":
            out[key] = [cfg.grid.x_min, cfg.grid.x_max, cfg.grid.p_min,
                        cfg.grid.p_max, cfg.grid.nx, cfg.grid.np]
        elif isinstance(value, Path):
            out[key] = str(value)
        elif isinstance(value, complex):
            out[key] = str(value)
        elif isinstance(value, tuple):
            out[key] = list(value)
        else:
            out[key] = value
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catwalk",
        description="Conditioned coherent-state superpositions of a kicked "
                    "qubit-resonator system",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", type=Path, help="flat key = value config file")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), dest="fmt")
        p.add_argument("--grid", help="xmin,xmax,pmin,pmax,nx,np")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = parse_config_file(args.config) if args.config else {}
        if args.out is not None:
            raw["out"] = str(args.out)
        if args.fmt is not None:
            raw["format"] = args.fmt
        if args.grid is not None:
            raw["grid"] = args.grid
        cfg = build_config(args.mode, raw)
        report = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CutoffTooSmall, DegenerateState, ZeroProbabilityOutcome) as exc:
        print(f"numerical gate: {exc}", file=sys.stderr)
        return 3
    for item in report.outputs:
        print(f"wrote {item['path']}  sha256={item['sha256'][:12]}...  "
              f"rows={item['rows']}")
    print(f"report: {cfg.output_dir / 'report.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
