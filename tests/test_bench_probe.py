"""The benchmark tracer's probe of the measurement chain.

No benchmark workload calls ``protocol.run_conditioned_walk``, so this is
the one place its span probe runs.  ``bench/spans.py`` is imported as it
stands, from the bench directory on ``sys.path``.
"""

from math import pi
from pathlib import Path

import catwalk
import catwalk.cli  # noqa: F401  (the tracer wraps functions in every module)
from catwalk.protocol import ProtocolParams

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
