"""Command-line front end: config-driven runs with figure-ready data files.

Subcommands: walk | cat | decohere | oracle-check | alpha-table.  Each is
one entry of ``MODES``: the function that computes its tables and
diagnostics, the outputs it writes by default, the outputs it can write at
all, and the config keys it reads (requesting any other output or giving
any other key is a configuration error).  ``run`` writes the tables the
config's ``outputs`` select and the report.

Configs are flat ``key = value`` text files ('#' starts a comment; a key
given twice is a configuration error); the flags --out, --format and, where
the mode reads a grid, --grid override file values.  Angles accept a "pi"
suffix ("4.5pi", "-0.5pi", "pi"); everything else is plain floats, complex
literals ("0.3+0.1j") for alpha0, and comma lists where noted.
Outputs are CSV by default (one '#' header comment, a column-name row, then
data rows with fixed scientific formatting) or a JSON mirror of the same
table; identical configs produce byte-identical data files.  A Wigner
table holds its two axes and the (nx, np) field, not one repeated value per
row.  The writer streams a table in chunks of CHUNK_ROWS rows to the file
and its SHA-256, so it holds under 1 MB of text whatever the table's size;
its %.12e cells come from the vectorised, byte-exact ``efmt.cells``.
A report.json accompanies every run with the resolved value of each key the
mode reads, diagnostics, file checksums, warnings, and wall times: the
whole run and, under ``timings``, the computation, the Wigner reads
within it and each table's write (the wall times, and the Wigner row band
count, which follows the usable CPUs, are the one non-reproducible output).

Exit codes: 0 success, 2 configuration error (rates outside the model's
validity gates included, a grid, Fock propagators or kick-table Gram matrix
over its memory budget, refused up front, a config file it cannot read as
UTF-8 and outputs it cannot write), 3 numerical-gate failure (Fock leakage,
degenerate superposition, zero-probability outcome, kick-label overlaps
that overflow, a purity or fidelity that cancellation has taken outside
[0, 1]).
"""

import argparse
import hashlib
import json
import math
import sys
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dephasing import DyadEnsemble, cat_density, walk_density, walk_density_steps
from .errors import (
    ConfigError,
    CutoffTooSmall,
    DegenerateState,
    RegimeViolation,
    ZeroProbabilityOutcome,
)
from .observables import (
    WIGNER_BUDGET_BYTES,
    GridField,
    PhaseSpaceGrid,
    default_grid,
    position_density,
    read_bands,
    read_wigner,
    wigner_bytes,
)
from .protocol import (
    PhysicalParams,
    ProtocolParams,
    derive_protocol,
    kick_labels,
)
from . import dephasing, efmt, fock
from .efmt import FLOAT_FMT


def parse_angle(text: str) -> float:
    """Parse '4.5pi', '-0.5pi', 'pi', or a plain float, to radians."""
    s, scale = str(text).strip().lower(), 1.0
    if s.endswith("pi"):
        s, scale = s[:-2].strip(), math.pi
        if s in ("", "+", "-"):  # a bare "pi" or a sign before it: one pi
            s += "1"
    try:
        return float(s) * scale
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
    except ValueError as exc:
        raise ConfigError(f"bad grid specification: {exc}") from None


def parse_config_file(path) -> dict:
    """Read a flat key = value UTF-8 file, a leading byte-order mark skipped;
    '#' starts a comment, blank lines skip.  A key given twice, also as its
    '-' and '_' spellings, is refused."""
    data, first = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if key in first:
            raise ConfigError(f"{path}:{lineno}: {key} is given again; "
                              f"line {first[key]} gives it first")
        first[key] = lineno
        data[key] = value.strip()
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
    output_dir: Path = Path(".")
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
    # physical rates; when any is given, l1, l2 and phi are computed from them
    omega: float | None = None
    g: float | None = None
    omega1: float | None = None
    omega2: float | None = None
    cutoff: int = fock.DEFAULT_CUTOFF
    full_hamiltonian: bool = False

    def physical(self) -> PhysicalParams:
        missing = [k for k in ("omega", "g", "omega1", "omega2")
                   if getattr(self, k) is None]
        if missing:
            raise ConfigError(f"missing physical parameters: {', '.join(missing)}")
        return PhysicalParams(self.omega, self.g, self.omega1, self.omega2)

    def protocol(self) -> ProtocolParams:
        if (self.omega, self.g, self.omega1, self.omega2) == (None,) * 4:
            return ProtocolParams(self.l1, self.l2, self.phi, self.n, alpha0=self.alpha0)
        return derive_protocol(self.physical(), self.n, self.alpha0)


# Config key -> (the ExperimentConfig field it sets, its parser).  Which keys
# a mode reads is part of MODES.
KEYS = {
    "out": ("output_dir", Path),
    "format": ("fmt", str),
    "outputs": ("outputs",
                lambda text: tuple(s.strip() for s in text.split(",") if s.strip())),
    "n": ("n", int),
    "grid": ("grid", parse_grid),
    "l1": ("l1", float),
    "l2": ("l2", float),
    "phi": ("phi", parse_angle),
    "alpha0": ("alpha0", lambda text: complex(text.replace(" ", ""))),
    # + 0.0 reads -0 as 0, so that it shares 0's file names
    "xi": ("xi_values", lambda text: tuple(float(v) + 0.0 for v in text.split(","))),
    "decay_exponent": ("decay_exponent", float),
    "omega": ("omega", float),
    "g": ("g", float),
    "omega1": ("omega1", float),
    "omega2": ("omega2", float),
    "cutoff": ("cutoff", int),
    "full_hamiltonian": ("full_hamiltonian", _parse_bool),
}


def _check_budgets(cfg: ExperimentConfig):
    """Refuse a cutoff the leakage gate cannot use, then each array whose size
    estimate is over its budget: the Wigner evaluation, the propagators of
    each Fock model the run uses and the walk's kick-table Gram matrix."""
    grid, cutoff, n = cfg.grid, cfg.cutoff, cfg.n
    if cutoff <= fock.LEAKAGE_LEVELS:
        raise ConfigError(f"cutoff must exceed the {fock.LEAKAGE_LEVELS} "
                          f"Fock levels the leakage gate watches; got {cutoff}")
    models = ("reduced", "full") if cfg.full_hamiltonian else ("reduced",)
    rows = [(wigner_bytes(grid), WIGNER_BUDGET_BYTES, f"grid {grid.nx}x{grid.np} needs {{:,}} "
             "bytes to read its Wigner function, over the budget of {:,}")]
    rows += [(fock.propagator_bytes(cutoff, m), fock.PROPAGATOR_BUDGET_BYTES, f"cutoff {cutoff} "
              f"needs {{:,}} bytes of {m} propagators, over the budget of {{:,}}") for m in models]
    rows.append((dephasing.kick_gram_bytes(n), dephasing.GRAM_BUDGET_BYTES, f"n = {n} is over "
                 "the n budget of every mode: a walk that long needs {:,} bytes for the Gram "
                 f"matrix of its {2 * n + 1:,} kick labels, over {{:,}}"))
    for need, budget, message in rows:
        if need > budget:
            raise ConfigError(message.format(need, budget))


def build_config(mode: str, raw: dict) -> ExperimentConfig:
    """Validate a raw key-value mapping against the selected mode.

    Every key must be one the mode reads.  The protocol is computed from the
    rates omega, g, omega1, omega2 when any of them is given and taken from
    l1, l2, phi otherwise; a config may not give both."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    spec = MODES[mode]
    ignored = set(raw) - set(spec.keys)
    if ignored:
        raise ConfigError(f"{mode} does not read {', '.join(sorted(ignored))}; "
                          f"it reads {', '.join(spec.keys)}")
    missing = [key for key in spec.requires if key not in raw]
    if missing:
        raise ConfigError(f"{mode} needs {', '.join(missing)}")
    rates = set(raw) & {"omega", "g", "omega1", "omega2"}
    if rates and set(raw) & {"l1", "l2", "phi"}:
        raise ConfigError("give the protocol either as the rates omega, g, omega1, "
                          "omega2 or as l1, l2, phi, not both")

    values = {"mode": mode}
    for key, text in raw.items():
        name, parse = KEYS[key]
        try:
            values[name] = parse(str(text))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
    cfg = ExperimentConfig(**values)
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError("format must be 'csv' or 'json'")
    cfg.outputs = cfg.outputs or spec.defaults
    bad = set(cfg.outputs) - set(spec.writable)
    if bad:
        raise ConfigError(f"{mode} cannot write {', '.join(sorted(bad))}; "
                          f"it writes {', '.join(spec.writable)}")
    _check_budgets(cfg)

    tags = [_xi_tag(xi) for xi in cfg.xi_values]
    if len(set(tags)) < len(tags):
        raise ConfigError(f"xi values {raw['xi']} share output names "
                          f"({', '.join(tags)}); they must differ in 6 significant digits")
    if mode in ("cat", "oracle-check") and cfg.n < 1:
        raise ConfigError(f"{mode} mode needs n >= 1")
    for key, values in (("xi", cfg.xi_values), ("decay_exponent", (cfg.decay_exponent,))):
        if not all(v >= 0.0 for v in values):  # also refuses NaN; inf is full suppression
            raise ConfigError(f"{key} must be non-negative")
    # Build the parameter objects once so that out-of-range or non-finite
    # values are refused here; run() rebuilds them and records the warnings.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pp = cfg.protocol()
    except ValueError as exc:
        raise ConfigError(f"bad parameter: {exc}") from None
    if rates:  # keep the knobs the rates give, so that the report echoes them
        cfg.l1, cfg.l2, cfg.phi = pp.l1, pp.l2, pp.phi
    return cfg


@dataclass
class RunReport:
    """Summary of one run: echoed config, diagnostics, emitted files and
    wall times (``timings``: ``compute_s`` for the mode's tables and
    diagnostics, ``wigner_s`` for its :func:`read_wigner` calls, each the
    Wigner evaluation and the diagnostics read from it, ``wigner_bands``
    for the row bands, hence threads, of each evaluation, as
    :func:`read_bands` gives them for the config grid (0 when the mode
    evaluates none), and ``write_s`` per written table)."""

    mode: str
    config: dict
    diagnostics: dict
    outputs: list
    warnings: list
    timings: dict
    wall_time_s: float

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2, sort_keys=True, default=str)


@dataclass(frozen=True)
class Table:
    """One data file: its name, the output that selects it, a header comment
    and its columns (float, int or str) in file order.

    Without ``axes`` the columns are equally long 1-D sequences, one value
    per row.  A grid table names its (outer, inner) axis columns in
    ``axes``; those hold each axis value once and every other column is an
    (outer, inner) field, so row i * n_inner + j reads outer[i], inner[j]
    and field[i, j]."""

    name: str
    output: str
    comment: str
    columns: dict
    axes: tuple = ()

    @property
    def n_rows(self) -> int:
        if self.axes:
            return math.prod(len(self.columns[a]) for a in self.axes)
        return len(next(iter(self.columns.values())))


# Rows formatted per chunk: the writer's working set peaks near 0.6 MB (CSV)
# and 0.95 MB (JSON) whatever the table's size.
CHUNK_ROWS = 2048


def _cells(column: np.ndarray, fmt: str) -> np.ndarray:
    """(n, width) uint8 rows of a column's cells padded with NUL bytes:
    %.12e for floats, JSON-quoted text for strings in JSON, str() else."""
    if column.dtype.kind == "f":
        return efmt.cells(column)
    quote = json.dumps if fmt == "json" and column.dtype.kind == "U" else str
    text = np.array([quote(v).encode() for v in column.tolist()], dtype=bytes)
    return text.view(np.uint8).reshape(len(column), -1)


def _render(table: Table, fmt: str):
    """Yield the bytes of a table's file: its header, then its rows in
    chunks of CHUNK_ROWS.  Each chunk is a uint8 matrix, one row per table
    row, of literal separators and fixed-width cell slots.  The cells' NUL
    padding is dropped by ``bytes.translate``, which measured twice as fast
    as a boolean mask; no cell text contains a NUL.  Float cells come from
    :func:`efmt.cells`.  A grid table's inner-axis cells are formatted once
    per table, its outer-axis cells once per chunk they appear in.  JSON has
    the layout of ``json.dumps(body, indent=2, sort_keys=True)``."""
    cols = {k: np.asarray(c) for k, c in table.columns.items()}
    outer, inner = table.axes or (None, None)
    n_inner = len(cols[inner]) if inner else 1
    n_rows = table.n_rows
    if fmt == "csv":
        yield f"# {table.comment}\n{','.join(cols)}\n".encode()
    else:
        head = json.dumps({"columns": list(cols), "comment": table.comment,
                           "rows": []}, indent=2, sort_keys=True)
        yield (head[:-len("[]\n}")] + "[\n" if n_rows else head + "\n").encode()
    if not n_rows:
        return

    # per column: the cells of all its values (text columns and the inner
    # axis; None for the rest), the 1-D values, the map from row numbers to
    # value indices (None: the row numbers themselves) and its slot in the
    # row template
    head, sep, tail = ((b"", b",", b"\n") if fmt == "csv"
                       else (b"    [\n      ", b",\n      ", b"\n    ],\n"))
    specs, row = [], b""
    for i, (name, col) in enumerate(cols.items()):
        if name == outer:
            index = lambda rows: rows // n_inner
        elif name == inner:
            index = lambda rows: rows % n_inner
        else:
            col, index = col.reshape(-1), None
        whole = _cells(col, fmt) if name == inner or col.dtype.kind != "f" else None
        quote = b'"' if fmt == "json" and col.dtype.kind == "f" else b""
        row += (sep if i else head) + quote
        width = efmt.WIDTH if whole is None else whole.shape[1]
        specs.append((whole, col, index, slice(len(row), len(row) + width)))
        row += bytes(width) + quote
    buf = np.tile(np.frombuffer(row + tail, np.uint8), (min(CHUNK_ROWS, n_rows), 1))

    for r0 in range(0, n_rows, CHUNK_ROWS):
        rows = np.arange(r0, min(r0 + CHUNK_ROWS, n_rows))
        block = buf[:len(rows)]
        for whole, col, index, slot in specs:
            at = rows if index is None else index(rows)
            if whole is not None:
                block[:, slot] = whole.take(at, axis=0)
            elif index is None:
                block[:, slot] = efmt.cells(col[r0:r0 + len(rows)])
            else:
                block[:, slot] = efmt.cells(col[at[0]:at[-1] + 1]).take(at - at[0], axis=0)
        text = block.tobytes().translate(None, b"\0")
        yield text[:-len(",\n")] if fmt == "json" and r0 + len(rows) == n_rows else text
    if fmt == "json":
        yield b"\n  ]\n}\n"


def _write_table(path: Path, table: Table, fmt: str) -> dict:
    """Write one table deterministically, block by block, hashing the bytes
    as they are written; returns its report entry."""
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for data in _render(table, fmt):
            f.write(data)
            digest.update(data)
    return {"name": table.name, "path": str(path), "sha256": digest.hexdigest(),
            "rows": table.n_rows}


def alpha_table(pp: ProtocolParams) -> Table:
    """Kick-recursion labels (j, Re alpha_j, Im alpha_j, theta_j), j = -n..n."""
    amplitudes, phases = kick_labels(pp.l1, pp.l2, pp.alpha0, pp.n)
    return Table("alpha_table", "alpha-table",
                 "kick-recursion labels; columns: j, re_alpha, im_alpha, theta", {
                     "j": np.arange(-pp.n, pp.n + 1),
                     "re_alpha": amplitudes.real,
                     "im_alpha": amplitudes.imag,
                     "theta": phases,
                 })


def _pdist_table(rho: DyadEnsemble, grid: PhaseSpaceGrid) -> Table:
    dens = position_density(rho, grid)
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
    return Table(name, "wigner",
                 f"wigner function{at}; riemann_sum = {W.norm:.12e}; columns: x, p, w",
                 {"x": W.grid.x_axis(), "p": W.grid.p_axis(), "w": W.values},
                 axes=("x", "p"))


def _diagnostics_table(diag: dict, key: str | None = None) -> Table:
    name, at = "diagnostics", ""
    if key is not None:
        name, at = f"diagnostics_{key}", f" at {key}"
    keys = sorted(diag)
    return Table(name, "diagnostics", f"scalar diagnostics{at}; columns: key, value",
                 {"key": keys, "value": [float(diag[k]) for k in keys]})


# Each mode computes its tables and its diagnostics; run() writes the tables
# that cfg.outputs selects.


def _read(rho: DyadEnsemble, base: PhaseSpaceGrid, timings: dict):
    """(Wigner field, diagnostics) of one density from ``read_wigner``,
    whose wall time is added to ``timings["wigner_s"]``."""
    t0 = time.perf_counter()
    W, diag = read_wigner(rho, base)
    timings["wigner_s"] += time.perf_counter() - t0
    return W, diag


def _density_tables(rho: DyadEnsemble, probability: float, base: PhaseSpaceGrid, timings: dict):
    """pdist, wigner and diagnostics tables of a conditioned density, and its
    diagnostics with its outcome's probability as ``success_probability``."""
    W, diag = _read(rho, base, timings)
    diag["success_probability"] = probability
    return [_pdist_table(rho, W.grid), _wigner_table(W), _diagnostics_table(diag)], diag


def _walk(cfg: ExperimentConfig, timings: dict):
    """The xi = 0 walk density and its record probability, both from the
    dephasing recursion that ``decohere`` runs."""
    pp = cfg.protocol()
    for _, rho, record in walk_density_steps(pp):
        pass
    tables, diag = _density_tables(rho, record, cfg.grid, timings)
    return [alpha_table(pp)] + tables, diag


def _cat(cfg: ExperimentConfig, timings: dict):
    """The damped cat density and its outcome probability, both from one
    ``cat_density`` call."""
    return _density_tables(*cat_density(cfg.protocol(), math.exp(-cfg.decay_exponent)),
                           cfg.grid, timings)


def _decohere(cfg: ExperimentConfig, timings: dict):
    """One Wigner table per xi, each computed only when asked for, so that
    run() writes it and lets it go before the next xi.  The protocol is
    resolved once, so that the rates' warnings are recorded once."""
    diag = {}
    pp = cfg.protocol()

    def tables():
        for xi in cfg.xi_values:
            rho = walk_density(pp, math.exp(-xi))
            W, diag[f"xi_{_xi_tag(xi)}"] = _read(rho, cfg.grid, timings)
            yield _wigner_table(W, xi)
        yield from (_diagnostics_table(diag[key], key) for key in sorted(diag))

    return tables(), diag


def _oracle_check(cfg: ExperimentConfig, timings: dict):
    phys = cfg.physical()
    ns = list(range(1, cfg.n + 1))
    fids, probs, leak_max = fock.closed_form_walk_fidelities(
        phys, cfg.n, cfg.alpha0, cfg.cutoff)
    columns = {"n": ns, "fidelity": fids,
               "record_probability": np.cumprod(probs)}
    if cfg.full_hamiltonian:
        columns["fidelity_full"], _, leak_full = fock.closed_form_walk_fidelities(
            phys, cfg.n, cfg.alpha0, cfg.cutoff, hamiltonian="full")
        leak_max = max(leak_max, leak_full)
    fid_min = min([1.0] + fids)
    diag = {"fidelity_min": fid_min, "leakage_max": leak_max,
            "l1": cfg.l1, "l2": cfg.l2, "phi": cfg.phi}
    print(f"oracle-check: min closed-form fidelity over n=1..{cfg.n}: {fid_min:.9f}")
    table = Table("oracle_check", "oracle-table",
                  "closed form vs matrix evolution; columns: " + ", ".join(columns),
                  columns)
    return [table, _diagnostics_table(diag)], diag


def _alpha_table(cfg: ExperimentConfig, timings: dict):
    return [alpha_table(cfg.protocol())], {}


@dataclass(frozen=True)
class Mode:
    """A subcommand: its computation, the outputs it writes, the config keys
    it reads besides those every mode reads, and the keys it cannot run
    without."""

    # (ExperimentConfig, timings dict) -> (iterable of Table, diagnostics
    # dict); the diagnostics and the Wigner timings are complete once the
    # tables are exhausted
    compute: Callable
    defaults: tuple
    writable: tuple
    reads: tuple
    requires: tuple = ()

    @property
    def keys(self) -> tuple:
        """Every config key the mode reads: the run keys, n, the four
        physical rates and its own."""
        return ("out", "format", "outputs", "n", "omega", "g", "omega1", "omega2") + self.reads


MODES = {
    "walk": Mode(_walk, ("alpha-table", "pdist", "diagnostics"),
                 ("alpha-table", "pdist", "wigner", "diagnostics"),
                 ("grid", "l1", "l2", "phi", "alpha0")),
    "cat": Mode(_cat, ("pdist", "wigner", "diagnostics"),
                ("pdist", "wigner", "diagnostics"),
                ("grid", "l1", "l2", "phi", "decay_exponent")),
    "decohere": Mode(_decohere, ("wigner", "diagnostics"), ("wigner", "diagnostics"),
                     ("grid", "l1", "l2", "phi", "alpha0", "xi")),
    "oracle-check": Mode(_oracle_check, ("oracle-table",), ("oracle-table", "diagnostics"),
                         ("alpha0", "cutoff", "full_hamiltonian"),
                         requires=("omega", "g", "omega1", "omega2")),
    "alpha-table": Mode(_alpha_table, ("alpha-table",), ("alpha-table",),
                        ("l1", "l2", "alpha0")),
}


def run(cfg: ExperimentConfig) -> RunReport:
    """Execute one configured run and write the requested artifacts."""
    t0 = time.perf_counter()
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    artifacts, write_s = [], {}
    evaluates = "grid" in MODES[cfg.mode].reads
    timings = {"wigner_s": 0.0, "wigner_bands": read_bands(cfg.grid) if evaluates else 0}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tables, diag = MODES[cfg.mode].compute(cfg, timings)
        for t in tables:
            if t.output in cfg.outputs:
                t_write = time.perf_counter()
                artifacts.append(_write_table(cfg.output_dir / f"{t.name}.{cfg.fmt}",
                                              t, cfg.fmt))
                write_s[t.name] = time.perf_counter() - t_write
    timings.update(compute_s=time.perf_counter() - t0 - sum(write_s.values()),
                   write_s=write_s)
    report = RunReport(
        mode=cfg.mode,
        config={key: getattr(cfg, KEYS[key][0]) for key in MODES[cfg.mode].keys},
        diagnostics=diag,
        outputs=artifacts,
        warnings=[str(w.message) for w in caught],
        timings=timings,
        wall_time_s=time.perf_counter() - t0,
    )
    (cfg.output_dir / "report.json").write_text(report.to_json() + "\n", newline="\n")
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catwalk",
        description="Conditioned coherent-state superpositions of a kicked "
                    "qubit-resonator system",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, spec in MODES.items():
        p = sub.add_parser(mode)
        p.add_argument("--config", type=Path, help="flat key = value config file")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument("--format", choices=("csv", "json"))
        if "grid" in spec.keys:
            p.add_argument("--grid", help="xmin,xmax,pmin,pmax,nx,np")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = parse_config_file(args.config) if args.config else {}
        for key in ("out", "format", "grid"):
            if getattr(args, key, None) is not None:
                raw[key] = str(getattr(args, key))
        cfg = build_config(args.mode, raw)
        report = run(cfg)
    except (ConfigError, RegimeViolation) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: cannot write outputs: {exc}", file=sys.stderr)
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
