"""Command-line front end: config-driven runs with figure-ready data files.

Subcommands: walk | cat | decohere | oracle-check | alpha-table.

Configs are flat ``key = value`` text files ('#' starts a comment); command
line flags override file values.  Angles accept a "pi" suffix ("4.5pi",
"-0.5pi", "pi"); everything else is plain floats, complex literals
("0.3+0.1j") for alpha0, and comma lists where noted.  Outputs are CSV by
default (one '#' header comment, a column-name row, then data rows with
fixed scientific formatting) or a JSON mirror of the same table; identical
configs produce byte-identical data files.  A report.json accompanies every
run with the echoed config, diagnostics, file checksums, warnings, and wall
time (the report's wall-time field is the one non-reproducible output).

Exit codes: 0 success, 2 configuration error, 3 numerical-gate failure
(Fock leakage, degenerate superposition, zero-probability outcome).
"""

import argparse
import cmath
import hashlib
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .dephasing import cat_density, walk_density
from .errors import (
    ConfigError,
    CutoffTooSmall,
    DegenerateState,
    ZeroProbabilityOutcome,
)
from .observables import (
    PhaseSpaceGrid,
    default_grid,
    diagnostics,
    grid_for,
    position_density,
    wigner_mixed,
    wigner_pure,
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

MODES = ("walk", "cat", "decohere", "oracle-check", "alpha-table")

DEFAULT_OUTPUTS = {
    "walk": ("alpha-table", "pdist", "diagnostics"),
    "cat": ("pdist", "wigner", "diagnostics"),
    "decohere": ("wigner", "diagnostics"),
    "oracle-check": ("oracle-table",),
    "alpha-table": ("alpha-table",),
}

KNOWN_OUTPUTS = ("alpha-table", "pdist", "wigner", "diagnostics", "oracle-table")


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
    seed: int | None = None  # reserved; the protocol is deterministic
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
            if xi is not None:
                pp = ProtocolParams(pp.l1, pp.l2, pp.phi, pp.n, xi, pp.alpha0)
            return pp
        return ProtocolParams(
            self.l1, self.l2, self.phi, self.n,
            self.xi_values[0] if xi is None else xi, self.alpha0,
        )


def build_config(mode: str, raw: dict) -> ExperimentConfig:
    """Validate a raw key-value mapping against the selected mode."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    known = {
        "mode", "out", "output_dir", "format", "grid", "outputs", "seed",
        "l1", "l2", "phi", "n", "n_max", "xi", "alpha0", "decay_exponent",
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
        if "seed" in raw:
            cfg.seed = int(raw["seed"])
        if "l1" in raw:
            cfg.l1 = float(raw["l1"])
        if "l2" in raw:
            cfg.l2 = float(raw["l2"])
        if "phi" in raw:
            cfg.phi = parse_angle(raw["phi"])
        if "n" in raw:
            cfg.n = int(raw["n"])
        if "n_max" in raw:
            cfg.n = int(raw["n_max"])
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
        if "full_hamiltonian" in raw:
            cfg.full_hamiltonian = _parse_bool(raw["full_hamiltonian"])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from None

    requested = raw.get("outputs")
    if requested:
        cfg.outputs = tuple(s.strip() for s in requested.split(",") if s.strip())
        bad = set(cfg.outputs) - set(KNOWN_OUTPUTS)
        if bad:
            raise ConfigError(f"unknown outputs: {', '.join(sorted(bad))}")
    else:
        cfg.outputs = DEFAULT_OUTPUTS[mode]

    if mode == "oracle-check" and not cfg.derive:
        cfg.derive = True  # oracle mode is inherently physical-parameter driven
    if mode in ("walk", "cat", "decohere") and len(cfg.xi_values) > 1 and mode != "decohere":
        raise ConfigError("xi lists are only supported in decohere mode")
    if mode == "cat" and cfg.n < 1:
        raise ConfigError("cat mode needs n >= 1")
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


def _fmt(value) -> str:
    return FLOAT_FMT % value


def _write_table(path: Path, comment: str, columns, rows, fmt: str):
    """Write one table deterministically; returns (path, sha256, n_rows)."""
    if fmt == "csv":
        lines = [f"# {comment}", ",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                                  for v in row))
        payload = "\n".join(lines) + "\n"
    else:
        body = {
            "comment": comment,
            "columns": list(columns),
            "rows": [
                [_fmt(v) if isinstance(v, float) else v for v in row]
                for row in rows
            ],
        }
        payload = json.dumps(body, indent=2, sort_keys=True) + "\n"
    path.write_text(payload, newline="\n")
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return str(path), digest, len(rows)


def alpha_table_rows(l1: float, l2: float, alpha0: complex, n_max: int):
    """Rows (j, Re alpha_j, Im alpha_j, theta_j) for j = -n_max..n_max."""
    table = kick_labels(l1, l2, alpha0, n_max)
    rows = []
    for j in range(-n_max, n_max + 1):
        lab = table[j]
        rows.append((j, lab.amplitude.real, lab.amplitude.imag, lab.phase))
    return rows


def _emit(cfg, name, comment, columns, rows, artifacts):
    ext = "csv" if cfg.fmt == "csv" else "json"
    path = cfg.output_dir / f"{name}.{ext}"
    fpath, digest, nrows = _write_table(path, comment, columns, rows, cfg.fmt)
    artifacts.append({"name": name, "path": fpath, "sha256": digest, "rows": nrows})


def _wigner_rows(field):
    xs = field.grid.x_axis()
    ps = field.grid.p_axis()
    rows = []
    for i, xv in enumerate(xs):
        for j, pv in enumerate(ps):
            rows.append((float(xv), float(pv), float(field.values[i, j])))
    return rows


def _clean(diag: dict) -> dict:
    return {k: float(v) for k, v in diag.items()}


def run(cfg: ExperimentConfig) -> RunReport:
    """Execute one configured run and write the requested artifacts."""
    t0 = time.perf_counter()
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []
    diag_all = {}
    caught = []
    with warnings.catch_warnings(record=True) as wrec:
        warnings.simplefilter("always")
        if cfg.mode == "alpha-table":
            pp = cfg.protocol()
            rows = alpha_table_rows(pp.l1, pp.l2, pp.alpha0, cfg.n)
            _emit(cfg, "alpha_table",
                  "kick-recursion labels; columns: j, re_alpha, im_alpha, theta",
                  ("j", "re_alpha", "im_alpha", "theta"), rows, artifacts)

        elif cfg.mode == "walk":
            pp = cfg.protocol()
            state = walk_state(pp)
            grid = grid_for(state, cfg.grid)
            if "alpha-table" in cfg.outputs:
                rows = alpha_table_rows(pp.l1, pp.l2, pp.alpha0, pp.n)
                _emit(cfg, "alpha_table",
                      "kick-recursion labels; columns: j, re_alpha, im_alpha, theta",
                      ("j", "re_alpha", "im_alpha", "theta"), rows, artifacts)
            if "pdist" in cfg.outputs:
                dens = position_density(state, grid)
                rows = [(float(xv), float(dv))
                        for xv, dv in zip(grid.x_axis(), dens.values)]
                _emit(cfg, "pdist",
                      f"position probability density; riemann_sum = {dens.norm:.12e}; "
                      "columns: x, density",
                      ("x", "density"), rows, artifacts)
            if "wigner" in cfg.outputs:
                W = wigner_pure(state, grid)
                _emit(cfg, "wigner",
                      f"wigner function; riemann_sum = {W.norm:.12e}; columns: x, p, w",
                      ("x", "p", "w"), _wigner_rows(W), artifacts)
            diag_all = _clean(diagnostics(state, grid))
            diag_all["success_probability"], _ = walk_record_probabilities(pp)

        elif cfg.mode == "cat":
            pp = cfg.protocol()
            state = cat_state(pp)
            grid = grid_for(state, cfg.grid)
            if "pdist" in cfg.outputs:
                dens = position_density(state, grid)
                rows = [(float(xv), float(dv))
                        for xv, dv in zip(grid.x_axis(), dens.values)]
                _emit(cfg, "pdist",
                      f"position probability density; riemann_sum = {dens.norm:.12e}; "
                      "columns: x, density",
                      ("x", "density"), rows, artifacts)
            target = state
            if cfg.decay_exponent > 0.0:
                target = cat_density(pp, math.exp(-cfg.decay_exponent))
            if "wigner" in cfg.outputs:
                W = (wigner_mixed(target, grid)
                     if cfg.decay_exponent > 0.0 else wigner_pure(target, grid))
                _emit(cfg, "wigner",
                      f"wigner function; riemann_sum = {W.norm:.12e}; columns: x, p, w",
                      ("x", "p", "w"), _wigner_rows(W), artifacts)
            diag_all = _clean(diagnostics(target, grid))
            diag_all["success_probability"] = cat_success_probability(pp)

        elif cfg.mode == "decohere":
            for xi in cfg.xi_values:
                pp = cfg.protocol(xi=xi)
                rho = walk_density(pp)
                pure = walk_state(ProtocolParams(
                    pp.l1, pp.l2, pp.phi, pp.n, 0.0, pp.alpha0))
                grid = grid_for(pure, cfg.grid)
                tag = ("%g" % xi).replace("-", "m")
                if "wigner" in cfg.outputs:
                    W = wigner_mixed(rho, grid)
                    _emit(cfg, f"wigner_xi_{tag}",
                          f"wigner function at xi = {xi:g}; riemann_sum = "
                          f"{W.norm:.12e}; columns: x, p, w",
                          ("x", "p", "w"), _wigner_rows(W), artifacts)
                diag_all[f"xi_{tag}"] = _clean(diagnostics(rho, grid))

        elif cfg.mode == "oracle-check":
            phys = cfg.physical()
            rows = []
            fid_min = 1.0
            for k in range(1, cfg.n + 1):
                fid, probs = fock.closed_form_walk_fidelity(
                    phys, k, cfg.alpha0, cfg.cutoff)
                record = math.prod(probs)
                row = [k, float(fid), float(record)]
                if cfg.full_hamiltonian:
                    fid_full, _ = fock.closed_form_walk_fidelity(
                        phys, k, cfg.alpha0, cfg.cutoff, hamiltonian="full")
                    row.append(float(fid_full))
                rows.append(tuple(row))
                fid_min = min(fid_min, fid)
            cols = ["n", "fidelity", "record_probability"]
            if cfg.full_hamiltonian:
                cols.append("fidelity_full")
            _emit(cfg, "oracle_check",
                  "closed form vs matrix evolution; columns: " + ", ".join(cols),
                  tuple(cols), rows, artifacts)
            diag_all["fidelity_min"] = fid_min
            pp = derive_protocol(phys, cfg.n, cfg.alpha0)
            diag_all.update(
                {"l1": pp.l1, "l2": pp.l2, "phi": pp.phi, "xi": pp.xi})
            print(f"oracle-check: min closed-form fidelity over n=1..{cfg.n}: "
                  f"{fid_min:.9f}")

        caught = [str(w.message) for w in wrec]

    if "diagnostics" in cfg.outputs and diag_all:
        if cfg.mode == "decohere":
            for key in sorted(diag_all):
                rows = [(k, float(v)) for k, v in sorted(diag_all[key].items())]
                _emit(cfg, f"diagnostics_{key}",
                      f"scalar diagnostics at {key}; columns: key, value",
                      ("key", "value"), rows, artifacts)
        else:
            rows = [(k, float(v)) for k, v in sorted(diag_all.items())]
            _emit(cfg, "diagnostics",
                  "scalar diagnostics; columns: key, value",
                  ("key", "value"), rows, artifacts)

    report = RunReport(
        mode=cfg.mode,
        config=_echo_config(cfg),
        diagnostics=diag_all,
        outputs=artifacts,
        warnings=caught,
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
        p.add_argument("--seed", type=int, help="reserved; runs are deterministic")
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
        if args.seed is not None:
            raw["seed"] = str(args.seed)
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
