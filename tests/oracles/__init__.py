"""Differential oracles: the slow, per-object twins of production code.

Each oracle is the implementation a fast path replaced, kept so the
differential suites and the benches can check the fast path against
it.  Nothing in ``repro`` imports this package and no config field
reaches it: a test selects an oracle by importing it.  pytest collects
nothing here (no ``test_`` modules).

* :mod:`.smoothing` — Step 2 over a
  :class:`~repro.graphs.preference_graph.PreferenceGraph`
  (:func:`smooth_preferences`), one 1-edge and one vote at a time;
* :mod:`.pipeline` — Steps 1-4 through that object graph
  (:func:`object_closure`, :func:`object_pipeline`);
* :mod:`.saps` — the SAPS anneal that copies the path and re-sums all
  ``n - 1`` edges per proposal (:func:`reference_search_report`), with
  its pure moves.

Benches outside ``tests/`` import it as ``tests.oracles`` with the
repo root on ``sys.path``.
"""

from .pipeline import ObjectClosure, object_closure, object_pipeline
from .saps import reference_search_report
from .smoothing import SmoothingResult, smooth_preferences

__all__ = [
    "ObjectClosure",
    "SmoothingResult",
    "object_closure",
    "object_pipeline",
    "reference_search_report",
    "smooth_preferences",
]
