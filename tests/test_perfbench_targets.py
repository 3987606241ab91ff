"""The functions the benchmark traces still exist where it looks for them.

``perfbench/tracing.py`` finds each traced function by its module and name,
and each traced method in its class's own ``__dict__``, at the start of every
traced run.  A function that is deleted, renamed or only inherited would make
every such run fail at start-up; this test catches it in the unit suite.
"""

from pathlib import Path

import bifree.cli  # noqa: F401  (imports every traced module)

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def test_every_traced_function_is_defined_and_unwrapped(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    snapshot = tracing.originals()
    assert set(snapshot) == set(tracing.SPAN_NAMES)
    tracing.assert_clean(snapshot)
