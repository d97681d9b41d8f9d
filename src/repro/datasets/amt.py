"""AMT-style CSV round-trip for vote data.

Real crowdsourcing platforms export results as flat CSV; this module
reads and writes a minimal, explicit format so actual AMT batches can be
fed straight into :func:`repro.inference.infer_ranking`:

.. code-block:: text

    worker_id,winner,loser
    0,3,7
    1,7,3

Header required; ids are non-negative integers.  ``n_objects`` is either
supplied or inferred as ``max id + 1``.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Optional, Union

from ..exceptions import DataFormatError
from ..types import INT64_MAX, Vote, VoteSet

#: Required CSV header.
_HEADER = ["worker_id", "winner", "loser"]


def save_votes_csv(votes: VoteSet, path: Union[str, Path]) -> None:
    """Write a vote set in the AMT-style CSV format."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER)
        for vote in votes:
            writer.writerow([vote.worker, vote.winner, vote.loser])


def load_votes_csv(
    path: Union[str, Path], n_objects: Optional[int] = None
) -> VoteSet:
    """Read a vote set from the AMT-style CSV format.

    Raises
    ------
    DataFormatError
        On a missing/odd header, non-integer fields, negative ids,
        self-comparisons, ids outside the declared object universe, or
        ids and ``n_objects`` beyond int64.
    """
    path = Path(path)
    votes: List[Vote] = []
    max_id = -1
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if [h.strip() for h in header] != _HEADER:
            raise DataFormatError(
                f"{path}: expected header {_HEADER}, got {header}"
            )
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataFormatError(
                    f"{path}:{row_number}: expected 3 fields, got {len(row)}"
                )
            try:
                worker, winner, loser = (int(field) for field in row)
            except ValueError:
                raise DataFormatError(
                    f"{path}:{row_number}: non-integer field in {row}"
                ) from None
            if worker < 0 or winner < 0 or loser < 0:
                raise DataFormatError(
                    f"{path}:{row_number}: negative id in {row}"
                )
            if max(worker, winner, loser) > INT64_MAX:
                raise DataFormatError(
                    f"{path}:{row_number}: id beyond int64 in {row}"
                )
            if winner == loser:
                raise DataFormatError(
                    f"{path}:{row_number}: self-comparison of object {winner}"
                )
            votes.append(Vote(worker=worker, winner=winner, loser=loser))
            max_id = max(max_id, winner, loser)
    if not votes:
        raise DataFormatError(f"{path}: no votes found")
    inferred = max_id + 1
    if n_objects is None:
        n_objects = inferred
    elif n_objects < inferred:
        raise DataFormatError(
            f"{path}: votes reference object {max_id} but n_objects="
            f"{n_objects}"
        )
    if n_objects > INT64_MAX:
        raise DataFormatError(f"{path}: n_objects={n_objects} is beyond int64")
    return VoteSet.from_votes(n_objects, votes)
