"""Append-only JSONL write-ahead checkpoints for streaming sessions.

The checkpoint file is a sequence of JSON documents, one per line, in
strict append order — the classic write-ahead discipline:

* ``{"type": "header", ...}`` — once per file: format version plus
  enough scenario identity (environment, seed, duration, tag ids) to
  refuse a resume against the wrong world.
* ``{"type": "result", "i": N, ...}`` — one line per served result, in
  completion order, flushed once per serving tick. These are the *expensive* bytes:
  every result logged here is an estimate the resumed session never has
  to recompute.
* ``{"type": "snapshot", "t": ..., "results_count": K, ...}`` — a
  consistency cut: "the first K result lines above, plus this pipeline
  state, describe the session exactly at simulated time t". Results are
  durable only once a snapshot commits them; trailing result lines past
  the last snapshot are discarded on load (the resumed session recomputes
  them bit-identically — determinism makes the recompute free of risk).
* ``{"type": "resume", ...}`` / ``{"type": "end", ...}`` — markers for
  observability. The loader reads one fact from them: an ``end`` marker
  with ``interrupted: false`` right after the last snapshot means a
  normal finish *sealed* the log (its drained tail is committed).

Robustness: the loader tolerates a truncated or corrupt tail (the crash
may have landed mid-write) by stopping at the first line that is not a
well-formed record (not UTF-8, not a JSON object, or a result/snapshot
missing the fields the loader reads), and resolves duplicate result
indices (a pre-crash tail recomputed after a resume) by keeping the
*latest* line — which, by the determinism contract, is byte-identical
to the one it replaces.

Line format (``FORMAT_VERSION`` 2): each document is encoded in one
``json`` encoder call, keys in the order the caller built them, floats
as their ``repr`` (exact round trip). Callers hand in plain-typed
documents; a value the encoder cannot take natively (a numpy scalar or
array, a set, any other object) goes through :func:`jsonable` instead of
failing. Version 1 sorted every line's keys and walked every value
through :func:`jsonable` first; its lines carry the same keys and
values, so the loader reads both versions the same way, and a resumed
session appends version-2 lines to a version-1 file.

This module is deliberately below the service layer: it speaks plain
dicts. :mod:`repro.service.session` owns the conversion between
:class:`~repro.service.pipeline.ServiceResult` and result documents.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, IO

import numpy as np

from ..exceptions import CheckpointError

__all__ = [
    "FORMAT_VERSION",
    "READABLE_VERSIONS",
    "CheckpointWriter",
    "CheckpointState",
    "load_checkpoint",
    "validate_header",
    "jsonable",
]

FORMAT_VERSION = 2

#: Header versions :func:`load_checkpoint` accepts.
READABLE_VERSIONS = (1, FORMAT_VERSION)

def jsonable(value: Any) -> Any:
    """Best-effort conversion of ``value`` into plain JSON types.

    NumPy scalars and arrays become Python numbers and lists; mappings
    and sequences recurse; anything else falls back to ``str`` — the
    checkpoint must always be writable, even for exotic diagnostics.
    """
    # Most common types first: a WAL line is mostly plain scalars,
    # dicts and lists.
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [jsonable(v) for v in sorted(value)]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    return str(value)


#: One encoder for every WAL line (``json.dumps`` with options builds a
#: new ``JSONEncoder`` per call). ``default`` only sees values JSON has
#: no native form for. A document is a tree: a cycle recurses until
#: ``RecursionError``, as the walk in :func:`jsonable` would.
_ENCODER = json.JSONEncoder(
    separators=(",", ":"), default=jsonable, check_circular=False
)


def _dump_line(doc: Mapping[str, Any]) -> str:
    try:
        return _ENCODER.encode(doc)
    except TypeError:
        # A mapping key JSON cannot take (a tuple, say): walk it all.
        return _ENCODER.encode(jsonable(doc))


class CheckpointWriter:
    """Appends WAL lines to a checkpoint file.

    Every record is flushed as it is written, except results: a caller
    appends a tick's worth of them and then calls :meth:`flush` once,
    which writes them in one ``write`` (the next snapshot, marker or
    :meth:`close` also writes them). Only a snapshot commits results, so
    batching their write loses nothing a resume could use.

    Parameters
    ----------
    path:
        Checkpoint file. ``append=False`` truncates (a fresh session);
        ``append=True`` continues an existing file (a resumed session).
    fsync:
        When True, snapshots additionally ``os.fsync`` — full crash
        durability at the price of one disk sync per snapshot.
    """

    def __init__(self, path: str | os.PathLike, *, append: bool = False,
                 fsync: bool = False):
        self.path = os.fspath(path)
        self._fsync = bool(fsync)
        mode = "a" if append else "w"
        self._fh: IO[str] | None = open(self.path, mode, encoding="utf-8")
        self._pending: list[str] = []  # encoded result lines, unwritten
        self.results_logged = 0
        self.snapshots_written = 0

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            fh, self._fh = self._fh, None
            fh.close()

    @property
    def closed(self) -> bool:
        return self._fh is None

    def _write(self, doc: Mapping[str, Any], *, sync: bool = False) -> None:
        if self._fh is None:
            raise CheckpointError(f"checkpoint writer for {self.path} is closed")
        self._pending.append(_dump_line(doc) + "\n")
        self._write_pending()
        if sync and self._fsync:
            os.fsync(self._fh.fileno())

    def _write_pending(self) -> None:
        self._fh.write("".join(self._pending))
        self._pending.clear()
        self._fh.flush()

    def flush(self) -> None:
        """Write the appended result lines in one ``write`` and flush."""
        if self._fh is not None and self._pending:
            self._write_pending()

    # -- record kinds --------------------------------------------------------

    def write_header(self, **fields: Any) -> None:
        self._write({"type": "header", "version": FORMAT_VERSION, **fields})

    def append_result(self, index: int, doc: Mapping[str, Any]) -> None:
        """Append one result line; :meth:`flush` writes the batch out."""
        if self._fh is None:
            raise CheckpointError(f"checkpoint writer for {self.path} is closed")
        self._pending.append(
            _dump_line({"type": "result", "i": int(index), **doc}) + "\n"
        )
        self.results_logged += 1

    def write_snapshot(
        self, *, t: float, results_count: int, **fields: Any
    ) -> None:
        from ..obs import current_tracer  # local: keep module import-light

        with current_tracer().span(
            "runtime.snapshot", t_cut=float(t), results=int(results_count)
        ):
            self._write(
                {
                    "type": "snapshot",
                    "t": float(t),
                    "results_count": int(results_count),
                    **fields,
                },
                sync=True,
            )
        self.snapshots_written += 1

    def write_marker(self, kind: str, **fields: Any) -> None:
        if kind in ("header", "result", "snapshot"):
            raise CheckpointError(f"{kind!r} is not a marker type")
        self._write({"type": kind, **fields})


@dataclass(frozen=True)
class CheckpointState:
    """A loaded checkpoint: the last committed consistency cut.

    Attributes
    ----------
    header:
        The file's header document (scenario identity, version).
    snapshot:
        The last complete snapshot document.
    results:
        The committed result documents, in completion order — exactly
        ``snapshot["results_count"]`` of them.
    sealed:
        Whether a normal finish closed the log after this snapshot (an
        ``end`` marker with ``interrupted: false``): the cut is the
        session's end, drain included.
    """

    header: Mapping[str, Any]
    snapshot: Mapping[str, Any]
    results: tuple[Mapping[str, Any], ...]
    sealed: bool = False

    @property
    def t_cut(self) -> float:
        """Simulated time of the consistency cut."""
        return float(self.snapshot["t"])


def validate_header(
    restored: CheckpointState, expected: Mapping[str, Any]
) -> None:
    """Refuse to resume a checkpoint against a different world.

    Every key of ``expected`` must match the loaded header after
    :func:`jsonable` normalization. The identity keys include the
    session's ``zone`` (``None`` for unzoned sessions), so a zone
    worker's checkpoint can never resume into a different zone — the
    two zones are independent seeded worlds and replay against the
    wrong one would silently produce garbage.
    """
    for key, want in expected.items():
        got = restored.header.get(key)
        if jsonable(got) != jsonable(want):
            raise CheckpointError(
                f"checkpoint header mismatch on {key!r}: checkpoint has "
                f"{got!r}, this session has {want!r} — refusing to "
                f"resume against a different world"
            )


def _parse_line(raw: bytes) -> dict | None:
    """One WAL line as a document, or ``None`` when the line is torn or
    corrupt: not UTF-8, not JSON, not an object, a ``result`` without an
    int ``i``, or a ``snapshot`` without a non-negative int
    ``results_count`` and a numeric ``t``."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError):  # UnicodeDecodeError included
        return None
    if not isinstance(doc, dict):
        return None
    kind = doc.get("type")
    if kind == "result" and type(doc.get("i")) is not int:
        return None
    if kind == "snapshot" and not (
        type(doc.get("results_count")) is int
        and doc["results_count"] >= 0
        and type(doc.get("t")) in (int, float)
    ):
        return None
    return doc


def load_checkpoint(path: str | os.PathLike) -> CheckpointState:
    """Parse a checkpoint file down to its last committed cut.

    Reading stops at the first torn or corrupt line (see
    :func:`_parse_line`), exactly as at a crash landed mid-write: the
    state is that of the lines before it.

    Raises :class:`~repro.exceptions.CheckpointError` when that prefix
    has no header, no complete snapshot, an unsupported version, or a
    snapshot that commits results the file never logged.
    """
    path = os.fspath(path)
    header: Mapping[str, Any] | None = None
    snapshot: Mapping[str, Any] | None = None
    results_by_index: dict[int, Mapping[str, Any]] = {}
    sealed = False
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    with fh:
        for raw in fh:
            if not raw.strip():
                continue
            doc = _parse_line(raw)
            if doc is None:
                break  # crash landed mid-write; stop here
            kind = doc.get("type")
            if kind == "header":
                if header is None:
                    header = doc
            elif kind == "result":
                results_by_index[doc["i"]] = doc
            elif kind == "snapshot":
                snapshot, sealed = doc, False
            elif kind == "end":
                sealed = doc.get("interrupted") is False
            # other markers ("resume", unknown future kinds): skipped
    if header is None:
        raise CheckpointError(f"checkpoint {path} has no header line")
    version = header.get("version")
    if type(version) is not int or version not in READABLE_VERSIONS:
        raise CheckpointError(
            f"checkpoint {path} has format version {version!r}; "
            f"this build reads versions "
            f"{', '.join(map(str, READABLE_VERSIONS))}"
        )
    if snapshot is None:
        raise CheckpointError(
            f"checkpoint {path} has no complete snapshot to resume from"
        )
    count = snapshot["results_count"]
    missing = [i for i in range(count) if i not in results_by_index]
    if missing:
        raise CheckpointError(
            f"checkpoint {path} snapshot commits {count} results but "
            f"indices {missing[:5]}{'...' if len(missing) > 5 else ''} "
            f"were never logged"
        )
    return CheckpointState(
        header=header,
        snapshot=snapshot,
        results=tuple(results_by_index[i] for i in range(count)),
        sealed=sealed,
    )
