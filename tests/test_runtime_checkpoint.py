"""Tests for repro.runtime.checkpoint: the JSONL write-ahead log."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.exceptions import CheckpointError
from repro.runtime import CheckpointWriter, load_checkpoint
from repro.runtime.checkpoint import FORMAT_VERSION, jsonable, validate_header


def _write_minimal(path, n_results=3, t=10.0):
    with CheckpointWriter(path) as w:
        w.write_header(scenario="Env1", seed=0)
        for i in range(n_results):
            w.append_result(i, {"tag_id": f"tag-{i}", "value": float(i)})
        w.write_snapshot(t=t, results_count=n_results, state={"x": 1})
    return path


class TestJsonable:
    def test_numpy_scalars_and_arrays(self):
        assert jsonable(np.float64(1.5)) == 1.5
        assert jsonable(np.int32(3)) == 3
        assert jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_nested_structures(self):
        doc = {"a": (1, np.float64(2.0)), "b": {"c": np.array([3])}}
        assert jsonable(doc) == {"a": [1, 2.0], "b": {"c": [3]}}

    def test_sets_become_sorted_lists(self):
        assert jsonable({3, 1, 2}) == [1, 2, 3]

    def test_exotic_values_fall_back_to_str(self):
        class Exotic:
            def __repr__(self):
                return "<exotic>"

        assert jsonable(Exotic()) == "<exotic>"

    def test_json_float_roundtrip_is_exact(self):
        value = 0.1 + 0.2  # classic non-representable sum
        assert json.loads(json.dumps(jsonable(value))) == value


class TestWriterAndLoader:
    def test_roundtrip(self, tmp_path):
        path = _write_minimal(tmp_path / "c.ckpt")
        state = load_checkpoint(path)
        assert state.header["scenario"] == "Env1"
        assert state.header["version"] == FORMAT_VERSION
        assert state.t_cut == 10.0
        assert len(state.results) == 3
        assert state.results[1]["tag_id"] == "tag-1"
        assert state.snapshot["state"] == {"x": 1}

    def test_every_line_is_valid_json(self, tmp_path):
        path = _write_minimal(tmp_path / "c.ckpt")
        for line in path.read_text().splitlines():
            json.loads(line)  # must not raise

    def test_truncated_tail_tolerated(self, tmp_path):
        path = _write_minimal(tmp_path / "c.ckpt")
        with open(path, "a") as fh:
            fh.write('{"type": "result", "i": 99, "tag')  # mid-write crash
        state = load_checkpoint(path)
        assert len(state.results) == 3  # the torn line is ignored

    def test_trailing_results_past_snapshot_discarded(self, tmp_path):
        path = _write_minimal(tmp_path / "c.ckpt")
        with CheckpointWriter(path, append=True) as w:
            w.append_result(3, {"tag_id": "tag-3"})  # never committed
        state = load_checkpoint(path)
        assert len(state.results) == 3

    def test_duplicate_result_index_keeps_latest(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CheckpointWriter(path) as w:
            w.write_header()
            w.append_result(0, {"value": "old"})
            w.append_result(0, {"value": "new"})
            w.write_snapshot(t=1.0, results_count=1)
        assert load_checkpoint(path).results[0]["value"] == "new"

    def test_last_snapshot_wins(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CheckpointWriter(path) as w:
            w.write_header()
            w.append_result(0, {"v": 1})
            w.write_snapshot(t=1.0, results_count=1)
            w.append_result(1, {"v": 2})
            w.write_snapshot(t=2.0, results_count=2)
        state = load_checkpoint(path)
        assert state.t_cut == 2.0
        assert len(state.results) == 2

    def test_markers_are_skipped_by_loader(self, tmp_path):
        path = _write_minimal(tmp_path / "c.ckpt")
        with CheckpointWriter(path, append=True) as w:
            w.write_marker("resume", t_cut=10.0)
            w.write_marker("end", t=12.0)
        assert load_checkpoint(path).t_cut == 10.0

    def test_marker_kind_validated(self, tmp_path):
        with CheckpointWriter(tmp_path / "c.ckpt") as w:
            with pytest.raises(CheckpointError):
                w.write_marker("snapshot")

    def test_closed_writer_refuses_writes(self, tmp_path):
        w = CheckpointWriter(tmp_path / "c.ckpt")
        w.close()
        assert w.closed
        with pytest.raises(CheckpointError):
            w.write_header()
        w.close()  # idempotent

    def test_counters(self, tmp_path):
        with CheckpointWriter(tmp_path / "c.ckpt") as w:
            w.write_header()
            w.append_result(0, {})
            w.append_result(1, {})
            w.write_snapshot(t=1.0, results_count=2)
            assert w.results_logged == 2
            assert w.snapshots_written == 1


class TestLoaderErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_no_header(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_text('{"type": "snapshot", "t": 1.0, "results_count": 0}\n')
        with pytest.raises(CheckpointError, match="no header"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_text(
            '{"type": "header", "version": 999}\n'
            '{"type": "snapshot", "t": 1.0, "results_count": 0}\n'
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_no_snapshot(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CheckpointWriter(path) as w:
            w.write_header()
            w.append_result(0, {})
        with pytest.raises(CheckpointError, match="no complete snapshot"):
            load_checkpoint(path)

    def test_snapshot_commits_unlogged_results(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CheckpointWriter(path) as w:
            w.write_header()
            w.write_snapshot(t=1.0, results_count=5)
        with pytest.raises(CheckpointError, match="never logged"):
            load_checkpoint(path)


# -- torn and corrupt files ---------------------------------------------------


class TestCorruptLines:
    """A line that is not a well-formed record ends the readable prefix
    exactly as a torn line does; the usual checks then apply to it."""

    @pytest.mark.parametrize(
        "bad",
        [
            b"[1,2]",
            b"5",
            b'"text"',
            b"null",
            b'{"type": "result", "tag_id": "tag-9"}',
            b'{"type": "result", "i": "3"}',
            b'{"type": "result", "i": 3.0}',
            b'{"type": "result", "i": true}',
            b'{"type": "snapshot", "t": 20.0}',
            b'{"type": "snapshot", "t": 20.0, "results_count": "1"}',
            b'{"type": "snapshot", "t": 20.0, "results_count": -1}',
            b'{"type": "snapshot", "results_count": 0}',
            b'{"type": "snapshot", "t": "soon", "results_count": 0}',
            b'{"type": "end", "note": "\xff\xfe"}',
            b"\xff\xfe\x00garbage",
        ],
    )
    def test_corrupt_line_ends_the_prefix(self, tmp_path, bad):
        path = _write_minimal(tmp_path / "c.ckpt")
        good = load_checkpoint(path)
        with open(path, "ab") as fh:
            fh.write(bad + b"\n")
            fh.write(b'{"type": "snapshot", "t": 99.0, "results_count": 0}\n')
        state = load_checkpoint(path)
        assert state == good

    def test_corrupt_line_before_any_snapshot_raises(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(
            b'{"type": "header", "version": 1}\n[1,2]\n'
            b'{"type": "snapshot", "t": 1.0, "results_count": 0}\n'
        )
        with pytest.raises(CheckpointError, match="no complete snapshot"):
            load_checkpoint(path)

    def test_random_bytes_file_raises(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(bytes(range(256)) * 4)
        with pytest.raises(CheckpointError, match="no header"):
            load_checkpoint(path)


def _expected_state(docs):
    """Independent restatement of what a prefix of good records commits:
    ``(header, snapshot, results)``, or ``None`` where the loader must
    raise :class:`CheckpointError`."""
    headers = [d for d in docs if d.get("type") == "header"]
    snapshots = [d for d in docs if d.get("type") == "snapshot"]
    if not headers or headers[0].get("version") != FORMAT_VERSION:
        return None
    if not snapshots:
        return None
    results = {d["i"]: d for d in docs if d.get("type") == "result"}
    count = snapshots[-1]["results_count"]
    if any(i not in results for i in range(count)):
        return None
    return headers[0], snapshots[-1], tuple(results[i] for i in range(count))


def _parses_to_object(raw: bytes) -> bool:
    try:
        return isinstance(json.loads(raw.decode("utf-8")), dict)
    except Exception:
        return False


_json_scalars = st.none() | st.booleans() | st.integers() | st.floats(
    allow_nan=False
) | st.text()
#: Any JSON value except an object: never a record.
_non_object_json = _json_scalars | st.lists(
    st.recursive(
        _json_scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    ),
    max_size=3,
)
_not_an_int = st.none() | st.booleans() | st.floats() | st.text(max_size=3)


class TestCorruptionFuzz:
    @given(
        st.lists(
            st.sampled_from(["result", "redo", "snapshot", "marker"]),
            max_size=12,
        ),
        st.sampled_from(
            ["none", "truncate", "json", "bytes", "drop", "retype"]
        ),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_loader_returns_the_good_prefix_or_raises(
        self, tmp_path_factory, actions, corruption, data
    ):
        path = tmp_path_factory.mktemp("fuzz") / "c.ckpt"
        with CheckpointWriter(path) as w:
            w.write_header(scenario="Env1", seed=0)
            n = 0
            for step, action in enumerate(actions):
                if action == "result":
                    w.append_result(n, {"tag_id": f"tag-{n}", "v": step / 3})
                    n += 1
                elif action == "redo" and n:
                    w.append_result(n - 1, {"tag_id": f"tag-{n - 1}", "v": 0.5})
                elif action == "snapshot":
                    w.write_snapshot(t=float(step), results_count=n, state={})
                else:
                    w.write_marker("resume", t_cut=float(step))
        lines = path.read_bytes().splitlines(keepends=True)
        docs = [json.loads(line) for line in lines]
        bad = len(lines)  # index of the first bad line
        if corruption == "truncate":
            cut = data.draw(st.integers(0, sum(map(len, lines))))
            blob = b"".join(lines)[:cut]
            kept = blob.splitlines(keepends=True)
            bad = len(kept)
            if kept and kept[-1].rstrip(b"\n") != lines[bad - 1].rstrip(b"\n"):
                bad -= 1  # the last line is torn
            path.write_bytes(blob)
        elif corruption != "none":
            if corruption in ("drop", "retype"):
                targets = [
                    j for j, d in enumerate(docs)
                    if d["type"] in ("result", "snapshot")
                ]
                assume(targets)
                bad = data.draw(st.sampled_from(targets))
                doc = dict(docs[bad])
                fields = ["i"] if doc["type"] == "result" else [
                    "results_count", "t"
                ]
                name = data.draw(st.sampled_from(fields))
                if corruption == "drop":
                    del doc[name]
                elif name == "t":
                    doc[name] = data.draw(st.none() | st.booleans() | st.text())
                elif name == "i":
                    doc[name] = data.draw(_not_an_int)
                else:
                    doc[name] = data.draw(_not_an_int | st.integers(max_value=-1))
                line = json.dumps(doc).encode()
            else:
                bad = data.draw(st.integers(0, len(lines) - 1))
                if corruption == "json":
                    line = json.dumps(data.draw(_non_object_json)).encode()
                else:
                    line = data.draw(st.binary(max_size=40)).replace(b"\n", b"")
                    assume(line.strip() and not _parses_to_object(line))
            lines[bad] = line + b"\n"
            path.write_bytes(b"".join(lines))
        expected = _expected_state(docs[:bad])
        if expected is None:
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
        else:
            state = load_checkpoint(path)
            assert (state.header, state.snapshot, state.results) == expected


class TestFsync:
    def test_fsync_snapshot_smoke(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CheckpointWriter(path, fsync=True) as w:
            w.write_header()
            w.write_snapshot(t=1.0, results_count=0)
        assert load_checkpoint(path).t_cut == 1.0


class TestValidateHeader:
    def _restored(self, tmp_path, **header):
        path = tmp_path / "c.ckpt"
        with CheckpointWriter(path) as w:
            w.write_header(**header)
            w.write_snapshot(t=1.0, results_count=0, state={})
        return load_checkpoint(path)

    def test_matching_identity_passes(self, tmp_path):
        state = self._restored(
            tmp_path, scenario="Env1", seed=3, zone=None
        )
        validate_header(
            state, {"scenario": "Env1", "seed": 3, "zone": None}
        )

    def test_mismatch_names_the_offending_key(self, tmp_path):
        state = self._restored(tmp_path, scenario="Env1", seed=3)
        with pytest.raises(CheckpointError, match="'seed'"):
            validate_header(state, {"scenario": "Env1", "seed": 4})

    def test_zone_identity_is_enforced(self, tmp_path):
        # Zone A's file presented to zone B: the worlds are different
        # seeded deployments, so the resume must refuse loudly.
        state = self._restored(tmp_path, zone="z0", seed=3)
        with pytest.raises(
            CheckpointError, match="mismatch on 'zone'"
        ) as err:
            validate_header(state, {"zone": "z1", "seed": 3})
        assert "'z0'" in str(err.value) and "'z1'" in str(err.value)

    def test_unzoned_session_rejects_a_zoned_checkpoint(self, tmp_path):
        state = self._restored(tmp_path, zone="z0")
        with pytest.raises(CheckpointError, match="'zone'"):
            validate_header(state, {"zone": None})

    def test_comparison_normalizes_json_types(self, tmp_path):
        # Tuples round-trip through JSON as lists; the check must treat
        # them as equal rather than refusing its own header.
        state = self._restored(tmp_path, origin=[4.5, 0.0], grid=[4, 4])
        validate_header(state, {"origin": (4.5, 0.0), "grid": (4, 4)})
