"""Canonical JSONL trace files: write, read, canonicalize, diff.

A trace file is a sequence of JSON documents, one per line:

* line 1 — ``{"format": "repro-trace", "version": 1, ...}`` header with
  free-form recording metadata (scenario, seed, duration);
* every further line — one completed **root** span document
  (:meth:`repro.obs.tracer.Span.document`), in completion order,
  flushed as recorded (a crashed recording keeps everything up to the
  last complete root).

Two views of the same file:

* the **full** view keeps the wall-clock annotations (``wall_s``) — the
  input of ``repro trace summary``'s latency tables;
* the **logical** view strips them (:func:`logical_documents`), leaving
  a pure function of the seeded run. :func:`canonical_logical_json`
  renders that view with sorted keys and compact separators — the exact
  bytes the CI trace-smoke job and the trace-golden fixtures compare.

:func:`diff_documents` walks two span forests in parallel and reports
the first divergences by path (``[3].service.batch/children[1].attrs``),
which turns "the traces differ" into "the ladder took LANDMARC here and
full VIRE there".
"""

from __future__ import annotations

import json
import os
from typing import IO, Any, Iterable, Mapping

from ..exceptions import ConfigurationError
from .tracer import Span, _strip_wall

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceWriter",
    "read_trace",
    "logical_documents",
    "canonical_logical_json",
    "diff_documents",
]

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


def _dump(doc: Mapping[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class TraceWriter:
    """Streams completed root spans to a JSONL trace file.

    Wire it as a tracer sink::

        writer = TraceWriter(path, meta={"seed": 0})
        tracer = Tracer(sink=writer.sink)

    Use as a context manager; every line is flushed as written.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        meta: Mapping[str, Any] | None = None,
    ):
        self.path = os.fspath(path)
        try:
            self._fh: IO[str] | None = open(self.path, "w", encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot open trace file {self.path!r} for writing: {exc}"
            ) from exc
        header = {"format": TRACE_FORMAT, "version": TRACE_VERSION}
        if meta:
            header.update({str(k): meta[k] for k in meta})
        self._write_line(header)
        self.spans_written = 0

    def _write_line(self, doc: Mapping[str, Any]) -> None:
        if self._fh is None:
            raise ConfigurationError(
                f"trace file {self.path!r} is already closed"
            )
        self._fh.write(_dump(doc) + "\n")
        self._fh.flush()

    def sink(self, span: Span) -> None:
        """Tracer sink: serialize one completed root span."""
        self._write_line(span.document())
        self.spans_written += 1

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.flush()
            fh.close()


def _is_span_document(doc: Any) -> bool:
    """A JSON object whose ``children``, if any, are span documents too."""
    if not isinstance(doc, dict):
        return False
    children = doc.get("children", [])
    return isinstance(children, list) and all(map(_is_span_document, children))


def read_trace(path: str | os.PathLike) -> tuple[dict, list[dict]]:
    """Load a trace file; returns ``(header, span_documents)``.

    Reading stops at the first torn or corrupt span line, exactly like
    the checkpoint loader: a line that is not UTF-8, not JSON, or not a
    span document (a JSON object whose ``children`` are span documents)
    ends the readable prefix, and every complete root before it is
    kept. A missing, empty or header-less file raises
    :class:`~repro.exceptions.ConfigurationError`.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read trace file {path!r}: {exc}"
        ) from exc
    if not lines:
        raise ConfigurationError(f"trace file {path!r} is empty")
    try:
        header = json.loads(lines[0].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError included
        raise ConfigurationError(
            f"trace file {path!r} has no parsable header line"
        ) from exc
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise ConfigurationError(
            f"{path!r} is not a {TRACE_FORMAT} file "
            f"(header: {str(header)[:80]})"
        )
    docs: list[dict] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            doc = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError):
            break  # torn or corrupt: keep every complete root before it
        if not _is_span_document(doc):
            break
        docs.append(doc)
    return header, docs


def logical_documents(docs: Iterable[Mapping[str, Any]]) -> list[dict]:
    """Strip the wall-clock annotation from every span document."""
    return [_strip_wall(doc) for doc in docs]


def canonical_logical_json(docs: Iterable[Mapping[str, Any]]) -> str:
    """The byte-comparable rendering of a trace's logical content.

    Two seeded runs of the same session must produce identical strings
    here — the determinism contract the CI trace-smoke job enforces.
    """
    return json.dumps(
        logical_documents(docs), sort_keys=True, separators=(",", ":")
    )


def diff_documents(
    a: list[Mapping[str, Any]],
    b: list[Mapping[str, Any]],
    *,
    logical: bool = True,
    max_diffs: int = 10,
) -> list[str]:
    """Human-readable divergences between two span forests.

    Returns an empty list when the traces agree (under the chosen view).
    ``logical=True`` (default) compares the deterministic portion only;
    ``logical=False`` also compares wall-clock fields, which is only
    useful for comparing a file with itself.
    """
    if logical:
        a, b = logical_documents(a), logical_documents(b)
    diffs: list[str] = []

    def walk(x: Any, y: Any, path: str) -> None:
        if len(diffs) >= max_diffs:
            return
        if isinstance(x, Mapping) and isinstance(y, Mapping):
            for key in sorted(set(x) | set(y)):
                if key not in x:
                    diffs.append(f"{path}.{key}: only in B ({y[key]!r})")
                elif key not in y:
                    diffs.append(f"{path}.{key}: only in A ({x[key]!r})")
                else:
                    walk(x[key], y[key], f"{path}.{key}")
                if len(diffs) >= max_diffs:
                    return
            return
        if isinstance(x, list) and isinstance(y, list):
            if len(x) != len(y):
                diffs.append(
                    f"{path}: length {len(x)} in A vs {len(y)} in B"
                )
            for i, (xi, yi) in enumerate(zip(x, y)):
                walk(xi, yi, f"{path}[{i}]")
                if len(diffs) >= max_diffs:
                    return
            return
        if x != y:
            name = ""
            if isinstance(x, Mapping):  # pragma: no cover - defensive
                name = str(x.get("name", ""))
            diffs.append(f"{path}{name}: A={x!r} B={y!r}")

    if len(a) != len(b):
        diffs.append(f"root span count: {len(a)} in A vs {len(b)} in B")
    for i, (da, db) in enumerate(zip(a, b)):
        walk(da, db, f"[{i}]")
        if len(diffs) >= max_diffs:
            break
    return diffs
