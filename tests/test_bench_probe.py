"""The benchmark tracer's probes of the measurement chain and the Fock oracle.

No benchmark workload calls ``protocol.run_conditioned_walk``, so this is
the one place its span probe runs.  ``bench/spans.py`` is imported as it
stands, from the bench directory on ``sys.path``.
"""

from math import pi
from pathlib import Path

import catwalk
import catwalk.cli  # noqa: F401  (the tracer wraps functions in every module)
from catwalk.protocol import ProtocolParams

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_chain_span_reads_n_and_components(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer()
    tracer.install(catwalk)
    try:
        catwalk.protocol.run_conditioned_walk(ProtocolParams(0.1, 0.01, 4.5 * pi, 5))
    finally:
        tracer.remove()
    assert tracer.missing == []
    chain = [s for s in tracer.spans if s.name == "protocol.run_conditioned_walk"]
    assert [s.attrs for s in chain] == [{"n": 5, "components": 6}]
    assert spans.components_by_n(tracer.spans) == {5: 6}


def test_oracle_run_shows_its_fock_spans(monkeypatch, tmp_path):
    # configs/oracle_check.cfg walks n = 4 cycles: one evolve span per cycle.
    # The reduced model builds its real dressed blocks directly, so the run
    # assembles no 2N Hamiltonian and the build_heff probe reads 0.
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    cli = catwalk.cli
    raw = cli.parse_config_file(ROOT / "configs" / "oracle_check.cfg")
    cfg = cli.build_config("oracle-check", dict(raw, out=str(tmp_path)))
    tracer = spans.Tracer()
    tracer.install(catwalk)
    try:
        cli.run(cfg)
    finally:
        tracer.remove()
    assert tracer.missing == []
    names = [s.name for s in tracer.spans]
    assert names.count("fock.evolve") == 4
    assert names.count("fock.build_heff") == 0
