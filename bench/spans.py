"""In-memory spans around catwalk's public functions, and the per-layer metrics.

The tracer wraps each target function under every name it is bound to in
the catwalk modules (``cli.walk_state``, ``protocol.normalize``,
``observables._dyad_purity`` ...), so calls made between modules and inside
a module are both seen.  The program itself is not changed; ``remove``
restores every binding.

Most targets record a span (name, start, end, parent, run id, attributes).
``algebra.overlap`` is called millions of times by the walk chain, so it
only counts calls; a span per call would cost more than the work measured.
"""

import inspect
import os
import statistics
import time
from dataclasses import dataclass, field

MODULES = ("algebra", "protocol", "dephasing", "observables", "fock", "cli")


def _walk_chain(args, result):
    return {"n": args["pp"].n, "components": len(result[0].components)}


def _ensemble(args, result):
    return {"dyads": len(result.entries)}


def _wigner(args, result):
    obj, grid = list(args.values())[:2]
    dyads = len(obj.components) ** 2 if hasattr(obj, "components") else len(obj.entries)
    return {"points": grid.nx * grid.np, "dyads": dyads}


def _heff(args, result):
    return {"dim": result.shape[0]}


def _report(args, result):
    return {"rows": sum(item["rows"] for item in result.outputs),
            "bytes": sum(os.path.getsize(item["path"]) for item in result.outputs)}


# (defining module, function, span name, attribute probe)
SPAN_TARGETS = (
    ("algebra", "gram_matrix", "algebra.gram_matrix", None),
    ("algebra", "normalize", "algebra.normalize", None),
    ("protocol", "kick_labels", "protocol.kick_labels", None),
    ("protocol", "walk_state", "protocol.walk_state", None),
    ("protocol", "run_conditioned_walk", "protocol.run_conditioned_walk", _walk_chain),
    ("dephasing", "walk_density", "dephasing.walk_density", _ensemble),
    ("dephasing", "evolve_dyads", "dephasing.evolve_dyads", None),
    ("dephasing", "purity", "dephasing.purity", None),
    ("observables", "grid_for", "observables.grid_for", None),
    ("observables", "position_density", "observables.position_density", None),
    ("observables", "wigner_pure", "observables.wigner", _wigner),
    ("observables", "wigner_mixed", "observables.wigner", _wigner),
    ("observables", "diagnostics", "observables.diagnostics", None),
    ("fock", "closed_form_walk_fidelity", "fock.closed_form_walk_fidelity", None),
    ("fock", "evolve", "fock.evolve", None),
    ("fock", "build_heff", "fock.build_heff", _heff),
    ("fock", "superposed_fock_vector", "fock.superposed_fock_vector", None),
    ("cli", "build_config", "cli.build_config", None),
    ("cli", "run", "cli.run", _report),
)
COUNT_TARGETS = (("algebra", "overlap", "algebra.overlap"),)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span in the same list, -1 at top
    run: str
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans and call counts while installed into the catwalk modules."""

    def __init__(self):
        self.spans = []
        self.calls = {}
        self.run = ""
        self.missing = []
        self._stack = []
        self._undo = []

    def install(self, package):
        """Start a fresh recording: wrap every target under every name bound
        to it in ``package``'s modules."""
        self.spans, self.calls, self.missing = [], {}, []
        modules = [getattr(package, m) for m in MODULES]
        for mod_name, fn_name, span_name, probe in SPAN_TARGETS:
            fn = getattr(getattr(package, mod_name), fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            self._rebind(modules, fn, self._span_wrapper(fn, span_name, probe))
        for mod_name, fn_name, count_name in COUNT_TARGETS:
            fn = getattr(getattr(package, mod_name), fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            self.calls[count_name] = 0
            self._rebind(modules, fn, self._count_wrapper(fn, count_name))

    def remove(self):
        for mod, name, original in reversed(self._undo):
            setattr(mod, name, original)
        self._undo = []

    def _rebind(self, modules, fn, wrapper):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, name, fn))
                    setattr(mod, name, wrapper)

    def _span_wrapper(self, fn, name, probe):
        signature = inspect.signature(fn)
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, parent, self.run)
            self.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = probe(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def self_time(span, children) -> float:
    """Duration of a span minus the part of its interval its children cover."""
    pieces = sorted((max(c.start, span.start), min(c.end, span.end)) for c in children)
    covered, reach = 0.0, span.start
    for lo, hi in pieces:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span.end - span.start) - covered


def inclusive(spans, name) -> float:
    """Total duration of the spans called ``name``, not counting a span
    nested inside another of the same name twice."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        parent = s.parent
        while parent >= 0 and spans[parent].name != name:
            parent = spans[parent].parent
        if parent < 0:
            total += s.end - s.start
    return total


def pass_metrics(spans, calls) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)

    def self_of(predicate):
        return sum(self_time(s, children[i]) for i, s in enumerate(spans) if predicate(s.name))

    chain = {s.attrs["n"]: s for s in spans if s.name == "protocol.run_conditioned_walk"}
    growth = 0.0
    if 5 in chain and 10 in chain:
        growth = (chain[10].end - chain[10].start) / (chain[5].end - chain[5].start)
    components = chain[max(chain)].attrs["components"] if chain else 0

    wigner_s = inclusive(spans, "observables.wigner")
    kernel_evals = sum(s.attrs["points"] * s.attrs["dyads"]
                       for s in spans if s.name == "observables.wigner")
    # one complex Hermitian eigendecomposition with vectors per build_heff,
    # taken as 9 d**3 complex = 36 d**3 real floating-point operations
    heff_flops = sum(36 * s.attrs["dim"] ** 3 for s in spans if s.name == "fock.build_heff")
    cli_self = self_of(lambda n: n.startswith("cli."))
    cli_bytes = attr("cli.run", "bytes")

    return {
        "algebra.overlap.calls": (calls.get("algebra.overlap", 0), "count"),
        "algebra.gram_matrix.calls": (count("algebra.gram_matrix"), "count"),
        "algebra.normalize.s": (inclusive(spans, "algebra.normalize"), "s"),
        "protocol.run_conditioned_walk.s": (inclusive(spans, "protocol.run_conditioned_walk"), "s"),
        "protocol.run_conditioned_walk.components": (components, "count"),
        "protocol.run_conditioned_walk.growth_5_10": (growth, "ratio"),
        "protocol.walk_state.s": (inclusive(spans, "protocol.walk_state"), "s"),
        "protocol.kick_labels.calls": (count("protocol.kick_labels"), "count"),
        "dephasing.walk_density.s": (inclusive(spans, "dephasing.walk_density"), "s"),
        "dephasing.evolve_dyads.calls": (count("dephasing.evolve_dyads"), "count"),
        "dephasing.dyads": (attr("dephasing.walk_density", "dyads"), "count"),
        "dephasing.purity.s": (inclusive(spans, "dephasing.purity"), "s"),
        "observables.wigner.s": (wigner_s, "s"),
        "observables.wigner.calls": (count("observables.wigner"), "count"),
        "observables.wigner.points": (attr("observables.wigner", "points"), "count"),
        "observables.wigner.kernel_evals": (kernel_evals, "count"),
        "observables.wigner.mevals_per_s": (kernel_evals / wigner_s / 1e6 if wigner_s else 0.0,
                                            "Meval/s"),
        "observables.diagnostics.self_s": (self_of(lambda n: n == "observables.diagnostics"), "s"),
        "observables.position_density.s": (inclusive(spans, "observables.position_density"), "s"),
        "fock.closed_form_walk_fidelity.s": (inclusive(spans, "fock.closed_form_walk_fidelity"), "s"),
        "fock.evolve.s": (inclusive(spans, "fock.evolve"), "s"),
        "fock.evolve.calls": (count("fock.evolve"), "count"),
        "fock.build_heff.calls": (count("fock.build_heff"), "count"),
        "fock.eigh_flops_computed": (heff_flops, "flop"),
        "fock.superposed_fock_vector.s": (inclusive(spans, "fock.superposed_fock_vector"), "s"),
        "cli.run.s": (inclusive(spans, "cli.run"), "s"),
        "cli.self_s": (cli_self, "s"),
        "cli.rows_written": (attr("cli.run", "rows"), "count"),
        "cli.bytes_written": (cli_bytes, "byte"),
        "cli.write_mb_per_s": (cli_bytes / 1e6 / cli_self if cli_self else 0.0, "MB/s"),
    }


def components_by_n(spans) -> dict:
    """Components of the walk chain's returned state, by n."""
    return {s.attrs["n"]: s.attrs["components"]
            for s in spans if s.name == "protocol.run_conditioned_walk"}


def median_metrics(passes) -> dict:
    """Median of each metric over traced passes (counts are equal in all)."""
    names = passes[0].keys()
    return {k: (statistics.median(p[k][0] for p in passes), passes[0][k][1]) for k in names}

