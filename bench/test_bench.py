"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest -q bench
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from catwalk import cli  # noqa: E402
from catwalk.errors import RegimeViolation  # noqa: E402

SEEDS = range(200)


def span(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent, "r")


class TestSpanArithmetic:
    def test_self_time_subtracts_children(self):
        parent = span("cli.run", 0.0, 10.0)
        kids = [span("a", 1.0, 3.0, 0), span("b", 4.0, 5.5, 0)]
        assert spans.self_time(parent, kids) == pytest.approx(6.5)

    def test_self_time_counts_overlap_once_and_clips(self):
        parent = span("cli.run", 0.0, 10.0)
        kids = [span("a", 2.0, 6.0, 0), span("b", 5.0, 7.0, 0), span("c", 9.0, 12.0, 0)]
        # covered: [2, 7] and [9, 10] -> 6
        assert spans.self_time(parent, kids) == pytest.approx(4.0)

    def test_self_time_without_children_is_duration(self):
        assert spans.self_time(span("x", 1.0, 2.5), []) == pytest.approx(1.5)

    def test_inclusive_does_not_double_count_nesting(self):
        tree = [
            span("algebra.normalize", 0.0, 4.0),
            span("algebra.norm_squared", 0.5, 3.5, 0),
            span("algebra.normalize", 1.0, 2.0, 1),
            span("algebra.normalize", 5.0, 6.0),
        ]
        assert spans.inclusive(tree, "algebra.normalize") == pytest.approx(5.0)
        assert spans.inclusive(tree, "algebra.norm_squared") == pytest.approx(3.0)

    def test_layer_self_time_in_pass_metrics(self):
        tree = [
            span("cli.run", 0.0, 10.0),
            span("observables.diagnostics", 1.0, 5.0, 0),
            span("observables.wigner", 2.0, 4.0, 1),
            span("cli.build_config", 11.0, 11.5),
        ]
        tree[2].attrs = {"points": 100, "dyads": 4}
        m = spans.pass_metrics(tree, {"algebra.overlap": 7})
        assert m["cli.self_s"][0] == pytest.approx(6.0 + 0.5)
        assert m["observables.diagnostics.self_s"][0] == pytest.approx(2.0)
        assert m["observables.wigner.kernel_evals"][0] == 400
        assert m["observables.wigner.mevals_per_s"][0] == pytest.approx(400 / 2.0 / 1e6)
        assert m["algebra.overlap.calls"][0] == 7


class TestSeededConfigs:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_every_seed_passes_build_config_and_regime_gates(self, workload, tmp_path):
        for seed in SEEDS:
            for run in workloads.runs(workload, seed):
                cfg = cli.build_config(run.mode, run.config(tmp_path))
                pp = cfg.protocol()  # derives from the physical rates in oracle mode
                if run.mode == "oracle-check":
                    phys = cfg.physical()  # raises RegimeViolation outside the gates
                    assert phys.Omega1 / max(phys.Omega2, phys.g) >= 10
                else:  # phi is an odd multiple of pi/2
                    assert math.isclose(math.cos(pp.phi), 0.0, abs_tol=1e-12)

    def test_draw_stays_in_its_ranges_and_repeats(self):
        for seed in SEEDS:
            p = workloads.draw(seed)
            assert 0.08 <= p.l1 <= 0.12 and 0.008 <= p.l2 <= 0.012
            assert p.phi_halves % 2 == 1 and 1.2 <= p.omega2 <= 1.6
            assert workloads.draw(seed) == p

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_seed_changes_only_parameter_values(self, workload):
        drawn = {"l1", "l2", "phi", "omega2"}
        a, b = workloads.runs(workload, 1), workloads.runs(workload, 2)
        assert [r.name for r in a] == [r.name for r in b]
        for ra, rb in zip(a, b):
            fixed_a = {k: v for k, v in ra.raw if k not in drawn}
            fixed_b = {k: v for k, v in rb.raw if k not in drawn}
            assert fixed_a == fixed_b
            assert ra.raw != rb.raw

    def test_hierarchy_gate_is_real(self, tmp_path):
        run = workloads.runs("oracle-fock", 0)[0]
        raw = dict(run.config(tmp_path), omega2="1.7")
        with pytest.raises(RegimeViolation):
            cli.build_config(run.mode, raw).physical()


class TestChecks:
    def test_checks_pass_then_catch_damage(self, tmp_path):
        run = workloads.runs("walk-sweep", 3)[0]  # n = 1, fast
        ref = workloads.reference(run)
        cli.run(cli.build_config(run.mode, run.config(tmp_path)))
        assert workloads.check(run, tmp_path, ref) == []
        hashes = workloads.file_hashes(run, tmp_path)
        assert set(hashes) == {"alpha_table", "pdist", "wigner", "diagnostics"}

        pdist = tmp_path / "pdist.csv"
        lines = pdist.read_text().splitlines()
        x, d = lines[-100].split(",")
        lines[-100] = f"{x},{float(d) + 0.5:.12e}"
        pdist.write_text("\n".join(lines) + "\n")
        assert any("pdist Riemann" in p for p in workloads.check(run, tmp_path, ref))
        assert workloads.file_hashes(run, tmp_path)["pdist"] != hashes["pdist"]

        pdist.unlink()
        assert any("pdist: unreadable" in p for p in workloads.check(run, tmp_path, ref))
        assert workloads.file_hashes(run, tmp_path)["pdist"] is None

    def test_record_probability_check_is_tight(self, tmp_path):
        run = workloads.runs("walk-sweep", 3)[0]
        ref = workloads.reference(run)
        cli.run(cli.build_config(run.mode, run.config(tmp_path)))
        wrong = {"record_probability": ref["record_probability"] * (1 + 1e-5)}
        assert any("record probability" in p
                   for p in workloads.check(run, tmp_path, wrong))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_do_not_depend_on_the_seed(workload, tmp_path):
    import catwalk

    counts = []
    for seed in (1, 2):
        tracer = spans.Tracer()
        tracer.install(catwalk)
        try:
            for run in workloads.runs(workload, seed):
                cli.run(cli.build_config(run.mode, run.config(tmp_path / str(seed))))
        finally:
            tracer.remove()
        assert tracer.missing == []
        metrics = spans.pass_metrics(tracer.spans, tracer.calls)
        # bytes vary with the number of minus signs; counts must not
        counts.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "flop")})
    assert counts[0] == counts[1]
    assert cli.run.__module__ == "catwalk.cli" and not hasattr(cli.run, "__wrapped__")
