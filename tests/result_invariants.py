"""One checker for what every inference result promises.

:func:`assert_result_invariants` holds for any result an engine returns
on a vote set, whatever the votes: the engine tests call it on each
result they make, so a new engine or a changed one is held to the same
contract.  Entry points that return less than an
:class:`~repro.types.InferenceResult` are held to the parts they carry:
a baseline's bare ranking to :func:`assert_ranking_invariants`, a
session view to :func:`assert_view_invariants`.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from repro.io import json_scalars, result_from_payload, result_to_payload
from repro.types import InferenceResult, PairValues, VoteSet

#: The ``step_seconds`` keys each engine reports.
STEP_KEYS = {
    "crh_saps": {"truth_discovery", "smoothing", "propagation", "search"},
    "hodge": {"truth_discovery", "solve", "ranking"},
    "lsq": {"truth_discovery", "solve", "ranking"},
}


def assert_result_invariants(result: InferenceResult, votes: VoteSet,
                             engine: str = "crh_saps") -> None:
    """Assert the result contract of ``result``, inferred from ``votes``
    by ``engine``.

    * the ranking is a permutation of the object ids;
    * ``log_preference`` is finite, or ``-inf`` (a path through a zero
      closure weight, which the exact searches can return);
    * the ``step_seconds`` keys are the engine's, each a duration;
    * ``direct_preferences`` is a :class:`~repro.types.PairValues` over
      exactly the canonical pairs of ``votes``, in the pair table's
      order, with values in ``[0, 1]``;
    * the result equals its own JSON round trip (which keeps only the
      JSON-scalar metadata, as :func:`~repro.io.result_to_payload`
      documents).
    """
    assert_ranking_invariants(result.ranking.order, votes.n_objects)
    log_preference = result.log_preference
    assert math.isfinite(log_preference) or log_preference == -math.inf, \
        log_preference
    assert set(result.step_seconds) == STEP_KEYS[engine]
    assert all(seconds >= 0.0 for seconds in result.step_seconds.values())

    direct = result.direct_preferences
    assert isinstance(direct, PairValues)
    arrays = votes.arrays()
    np.testing.assert_array_equal(direct.lo, arrays.pair_lo)
    np.testing.assert_array_equal(direct.hi, arrays.pair_hi)
    assert np.all(direct.lo < direct.hi)
    values = direct.values_array
    assert np.all((values >= 0.0) & (values <= 1.0)), values

    round_trip = result_from_payload(
        json.loads(json.dumps(result_to_payload(result))))
    assert round_trip == dataclasses.replace(
        result, metadata=json_scalars(result.metadata))


def assert_ranking_invariants(order, n_objects: int) -> None:
    """The ranking is a permutation of the object ids ``0..n-1``."""
    assert sorted(int(v) for v in order) == list(range(n_objects)), order


def assert_view_invariants(view) -> None:
    """A session view (``RankingSession.view()``, or the JSON of a
    sessions endpoint): before the first ranking, no ranking and no
    ``log_preference``; after it, a permutation ranking and a finite
    ``log_preference`` (sessions anneal complete closures only)."""
    if view["ranking"] is None:
        assert view["log_preference"] is None
        return
    assert_ranking_invariants(view["ranking"], view["n_objects"])
    assert math.isfinite(view["log_preference"]), view["log_preference"]
