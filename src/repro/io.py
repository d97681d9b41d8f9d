"""Persistence: save and load inference results as JSON.

Crowdsourcing runs cost money; their inference outputs deserve durable
storage.  The JSON schema is explicit and versioned so files survive
library upgrades:

.. code-block:: json

    {
      "schema": "repro.inference_result/1",
      "ranking": [3, 0, 2, 1],
      "log_preference": -1.234,
      "worker_quality": {"0": 0.97},
      "direct_preferences": {"0,1": 0.8},
      "step_seconds": {"search": 0.5},
      "metadata": {"search_algorithm": "saps"}
    }

The payload codecs (:func:`result_to_payload` / :func:`result_from_payload`)
are exposed separately from the file helpers so that other transports —
the batch service's JSONL streams and its on-disk result cache — reuse
the exact same versioned schema.  :class:`EncodedResult` pairs a result
with its canonical JSON encoding (compact, sorted keys), so a result the
service caches or sends is encoded once and then spliced into larger
documents by :func:`splice_json` without being decoded again.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Union

from .exceptions import ConfigurationError, DataFormatError
from .types import InferenceResult, Ranking

#: Current schema tag written to / required from files.
SCHEMA = "repro.inference_result/1"


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically (tempfile + ``os.replace``).

    The text lands in a uniquely named temporary file in the *same
    directory* (so the final rename never crosses a filesystem) and is
    moved onto ``path`` with :func:`os.replace`, which POSIX guarantees
    to be atomic.  A concurrent reader therefore sees either the old
    complete content or the new complete content — never a truncated
    or interleaved file — which is what makes one spill directory safe
    to share between processes.  The temporary file is removed on any
    failure, so crashes never leave partial writes under the final
    name.
    """
    _write_atomically(path, text, "w")


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """The bytes form of :func:`atomic_write_text`."""
    _write_atomically(path, data, "wb")


def _write_atomically(path: Union[str, Path], data: Union[str, bytes],
                      mode: str) -> None:
    path = Path(path)
    handle = tempfile.NamedTemporaryFile(
        mode=mode, dir=str(path.parent), prefix=f".{path.name}.",
        suffix=".tmp", delete=False,
    )
    try:
        with handle:
            handle.write(data)
            handle.flush()
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def json_scalars(mapping: Dict[str, object]) -> Dict[str, object]:
    """The members of ``mapping`` whose values are JSON scalars."""
    return {
        key: value for key, value in mapping.items()
        if isinstance(value, (int, float, str, bool, type(None)))
    }


def result_to_payload(result: InferenceResult) -> Dict[str, object]:
    """Encode an inference result as a JSON-ready dict (schema-tagged)."""
    return {
        "schema": SCHEMA,
        "ranking": list(result.ranking.order),
        "log_preference": result.log_preference,
        "worker_quality": {
            str(worker): quality
            for worker, quality in sorted(result.worker_quality.items())
        },
        "direct_preferences": {
            f"{i},{j}": value
            for (i, j), value in sorted(result.direct_preferences.items())
        },
        "step_seconds": dict(result.step_seconds),
        "metadata": json_scalars(result.metadata),
    }


def result_from_payload(
    payload: object, source: str = "<payload>"
) -> InferenceResult:
    """Decode a dict produced by :func:`result_to_payload`.

    Parameters
    ----------
    payload:
        The parsed JSON value (any type — validated here).
    source:
        Human-readable origin (file path, "line 3", ...) used in error
        messages.

    Raises
    ------
    DataFormatError
        On a wrong/missing schema tag or invalid fields (non-permutation
        ranking, malformed pair keys).
    """
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise DataFormatError(
            f"{source}: expected schema {SCHEMA!r}, got "
            f"{payload.get('schema') if isinstance(payload, dict) else type(payload)!r}"
        )
    try:
        ranking = Ranking(payload["ranking"])
        worker_quality = {
            int(worker): float(quality)
            for worker, quality in payload.get("worker_quality", {}).items()
        }
        direct = {}
        for key, value in payload.get("direct_preferences", {}).items():
            i_text, j_text = key.split(",")
            direct[(int(i_text), int(j_text))] = float(value)
        return InferenceResult(
            ranking=ranking,
            log_preference=float(payload["log_preference"]),
            worker_quality=worker_quality,
            direct_preferences=direct,
            step_seconds={
                str(k): float(v)
                for k, v in payload.get("step_seconds", {}).items()
            },
            metadata=dict(payload.get("metadata", {})),
        )
    except (KeyError, ValueError, TypeError, ConfigurationError) as error:
        raise DataFormatError(f"{source}: malformed field ({error})") from None


class EncodedResult:
    """An inference result together with its canonical JSON encoding.

    ``result_json`` is ``json.dumps(result_to_payload(result),
    sort_keys=True)`` as UTF-8 bytes and ``ranking_json`` the encoding
    of ``list(result.ranking.order)``: the two sub-documents of a
    ``repro.job_result/1`` line, ready for :func:`splice_json`.  Built
    from a result, each encoding is computed on first use; built from
    the two encodings, the result is decoded on first use.  Either way
    each side is computed at most once per instance.
    """

    __slots__ = ("_result", "_result_json", "_ranking_json")

    def __init__(
        self,
        result: Optional[InferenceResult] = None,
        *,
        result_json: Optional[bytes] = None,
        ranking_json: Optional[bytes] = None,
    ):
        if result is None and (result_json is None or ranking_json is None):
            raise ConfigurationError(
                "EncodedResult needs a result or both of its encodings"
            )
        self._result = result
        self._result_json = result_json
        self._ranking_json = ranking_json

    @classmethod
    def eager(cls, result: InferenceResult) -> "EncodedResult":
        """``result`` with both encodings computed now.

        A process-pool attempt encodes where it ran, so the parent only
        unpickles the bytes next to the result instead of encoding them
        under its own GIL.
        """
        return cls(result, result_json=_encode_result(result),
                   ranking_json=_encode_ranking(result))

    @property
    def result(self) -> InferenceResult:
        """The decoded result (decoded from ``result_json`` if needed)."""
        if self._result is None:
            self._result = result_from_payload(
                json.loads(self._result_json), source="<encoded result>"
            )
        return self._result

    @property
    def result_json(self) -> bytes:
        """The canonical encoding of :func:`result_to_payload`."""
        if self._result_json is None:
            self._result_json = _encode_result(self._result)
        return self._result_json

    @property
    def ranking_json(self) -> bytes:
        """The encoding of the ranking as a JSON list of object ids."""
        if self._ranking_json is None:
            self._ranking_json = _encode_ranking(self._result)
        return self._ranking_json


def _encode_result(result: InferenceResult) -> bytes:
    return json.dumps(result_to_payload(result), sort_keys=True).encode("utf-8")


def _encode_ranking(result: InferenceResult) -> bytes:
    return json.dumps(list(result.ranking.order)).encode("utf-8")


def splice_json(payload: Dict[str, object],
                encoded: Dict[str, bytes]) -> bytes:
    """Encode an object whose members are partly already-encoded JSON.

    Returns the UTF-8 bytes of ``json.dumps(merged, sort_keys=True)``,
    where ``merged`` holds ``payload``'s values plus ``encoded``'s
    values as the documents they encode (each written the way
    ``json.dumps(value, sort_keys=True)`` would write it).  The object
    is assembled member by member in sorted key order with ``json``'s
    default separators, so the pre-encoded members are copied verbatim
    at their sorted positions: nothing is searched or substituted, and
    no key or value can shift where a splice lands.
    """
    members = {
        key: json.dumps(value, sort_keys=True).encode("utf-8")
        for key, value in payload.items()
    }
    members.update(encoded)
    return b"{" + b", ".join(
        json.dumps(key).encode("utf-8") + b": " + members[key]
        for key in sorted(members)
    ) + b"}"


def save_payload(payload: Dict[str, object], path: Union[str, Path]) -> None:
    """Write any schema-tagged payload dict as pretty JSON.

    The generic sibling of :func:`save_result` for the library's other
    versioned payloads (session snapshots, experiment exports): callers
    build the dict through their own ``*_to_payload`` codec and this
    helper only owns the file format.
    """
    if not isinstance(payload, dict) or "schema" not in payload:
        raise ConfigurationError(
            "payload must be a dict carrying a 'schema' tag"
        )
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def decode_json(text: Union[str, bytes], source: str) -> object:
    """``json.loads`` for outside input: any text that does not decode
    is a :class:`DataFormatError` naming ``source``.

    Bytes must be UTF-8.  :class:`ValueError` covers malformed JSON
    (:class:`json.JSONDecodeError`), bytes that are not UTF-8 and an
    integer longer than Python's int-to-string digit limit;
    :class:`RecursionError` covers nesting deeper than the decoder's
    stack.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text)
    except (ValueError, RecursionError) as error:
        raise DataFormatError(f"{source}: invalid JSON ({error})") from None


def _read_json(path: Path) -> object:
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise DataFormatError(f"{path}: cannot read ({error})") from None
    return decode_json(raw, str(path))


def load_payload(
    path: Union[str, Path], schema: str
) -> Dict[str, object]:
    """Read a JSON payload written by :func:`save_payload`.

    Raises
    ------
    DataFormatError
        On a missing/unreadable file, malformed JSON, or a schema tag
        different from ``schema``.
    """
    path = Path(path)
    payload = _read_json(path)
    if not isinstance(payload, dict) or payload.get("schema") != schema:
        raise DataFormatError(
            f"{path}: expected schema {schema!r}, got "
            f"{payload.get('schema') if isinstance(payload, dict) else type(payload)!r}"
        )
    return payload


def save_result(result: InferenceResult, path: Union[str, Path]) -> None:
    """Write an inference result as versioned JSON.

    The write is atomic (:func:`atomic_write_text`): concurrent readers
    — and other processes sharing a cache spill directory — can never
    observe a torn or truncated file.
    """
    payload = result_to_payload(result)
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def load_result(path: Union[str, Path]) -> InferenceResult:
    """Read an inference result saved by :func:`save_result`.

    Raises
    ------
    DataFormatError
        On a missing/unreadable file, malformed JSON, a wrong/missing
        schema tag, or invalid fields (non-permutation ranking,
        malformed pair keys).
    """
    path = Path(path)
    return result_from_payload(_read_json(path), source=str(path))
