"""Checkpoint format versions: version-1 logs stay resumable, and a
version-2 result line reads back what the version-1 encoding did.

``tests/golden/wal_v1.ckpt`` is a version-1 log, written by the
version-1 writer (keys sorted, every value walked through ``jsonable``)
for ``serve --env Env1 --duration 20 --seed 0 --query-interval 1.0
--kill-at 10``: a hard crash at t=10 s. It cannot be regenerated by this
build, which writes version 2; keep it as it is.
"""

from __future__ import annotations

import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.exceptions import CheckpointError
from repro.runtime import CheckpointWriter, load_checkpoint
from repro.runtime.checkpoint import FORMAT_VERSION, jsonable
from repro.service import ServiceResult
from repro.service.session import result_from_doc, result_to_doc

GOLDEN_V1 = Path(__file__).parent / "golden" / "wal_v1.ckpt"
SERVE = ["serve", "--env", "Env1", "--duration", "20", "--seed", "0",
         "--query-interval", "1.0"]

#: How a version-1 writer encoded a line.
_V1_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def v1_line(doc) -> str:
    return _V1_ENCODER.encode(jsonable(doc))


class TestVersion1Log:
    def test_committed_log_is_version_1_cut_mid_run(self):
        state = load_checkpoint(GOLDEN_V1)
        assert FORMAT_VERSION == 2
        assert state.header["version"] == 1
        assert 0.0 < state.t_cut < 20.0
        assert state.results and not state.sealed

    def test_resume_is_bit_exact_and_seals_the_log(self, tmp_path, capsys):
        assert main([*SERVE, "--json"]) == 0
        golden = capsys.readouterr().out
        path = tmp_path / "v1.ckpt"
        shutil.copyfile(GOLDEN_V1, path)
        assert main([*SERVE, "--checkpoint", str(path), "--resume",
                     "--json"]) == 0
        assert capsys.readouterr().out == golden
        # The resumed session appended version-2 lines to the version-1
        # file; the loader reads the mix, and a second resume of the
        # sealed log serves nothing twice.
        lines = path.read_text().splitlines()
        assert lines[: len(GOLDEN_V1.read_text().splitlines())] == (
            GOLDEN_V1.read_text().splitlines()
        )
        state = load_checkpoint(path)
        assert state.header["version"] == 1 and state.sealed
        assert main([*SERVE, "--checkpoint", str(path), "--resume",
                     "--json"]) == 0
        assert capsys.readouterr().out == golden

    @pytest.mark.parametrize("version", [0, 3, 999, "1", 1.0, True, None])
    def test_other_versions_are_refused_by_name(self, tmp_path, version):
        path = tmp_path / "c.ckpt"
        lines = GOLDEN_V1.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["version"] = version
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        with pytest.raises(CheckpointError, match="format version") as err:
            load_checkpoint(path)
        assert repr(version) in str(err.value)

    def test_cli_refuses_version_999_with_one_error_line(
        self, tmp_path, capsys
    ):
        path = tmp_path / "c.ckpt"
        lines = GOLDEN_V1.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["version"] = 999
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        assert main(
            [*SERVE, "--checkpoint", str(path), "--resume", "--json"]
        ) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "999" in err[0]


class TestVersion2Lines:
    def test_result_line_keeps_the_caller_key_order(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CheckpointWriter(path) as w:
            w.write_header()
            w.append_result(0, {"tag_id": "t", "b": 1, "a": 2})
            w.write_snapshot(t=1.0, results_count=1, state={"z": 0, "y": 1})
        header, result, snapshot = path.read_text().splitlines()
        assert json.loads(header)["version"] == 2
        assert result == '{"type":"result","i":0,"tag_id":"t","b":1,"a":2}'
        assert snapshot.startswith(
            '{"type":"snapshot","t":1.0,"results_count":1,"state":{"z":0'
        )

    def test_values_json_cannot_take_fall_back_to_jsonable(self, tmp_path):
        doc = {
            "f32": np.float32(1.5), "i64": np.int64(3), "flag": np.bool_(True),
            "arr": np.array([[1.0, 2.0]]), "set": {3, 1}, "obj": object,
            ("tuple", "key"): 1,
        }
        path = tmp_path / "c.ckpt"
        with CheckpointWriter(path) as w:
            w.write_header()
            w.append_result(0, doc)
            w.write_snapshot(t=1.0, results_count=1)
        got = load_checkpoint(path).results[0]
        assert got == json.loads(v1_line({"type": "result", "i": 0, **doc}))

    def test_one_write_per_flush(self, tmp_path):
        path = tmp_path / "c.ckpt"
        with CheckpointWriter(path) as w:
            w.write_header()
            size = path.stat().st_size
            w.append_result(0, {"v": 1})
            w.append_result(1, {"v": 2})
            assert path.stat().st_size == size  # buffered until flush
            w.flush()
            assert path.read_text().count("\n") == 3


_plain = st.none() | st.booleans() | st.integers(-(2**63), 2**63) | st.floats(
    allow_nan=True, allow_infinity=True
) | st.text(max_size=8)
_numpy = st.one_of(
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-(2**31), 2**31).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(st.floats(allow_nan=False), max_size=4).map(np.array),
)
_diag_values = st.recursive(
    _plain | _numpy,
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def service_results(draw):
    return ServiceResult(
        tag_id=draw(st.text(min_size=1, max_size=10)),
        position=(draw(_finite), draw(_finite)),
        estimator=draw(st.sampled_from(["VIRE", "LANDMARC", "last-known"])),
        degraded=draw(st.booleans()),
        reason=draw(st.none() | st.sampled_from(
            ["deadline", "partial_readers", "quorum_unmet", "no_reading"]
        )),
        requested_at_s=draw(_finite),
        completed_at_s=draw(_finite),
        processing_latency_s=draw(_finite),
        diagnostics=draw(
            st.dictionaries(st.text(max_size=6), _diag_values, max_size=6)
        ),
    )


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestResultRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(result=service_results(), index=st.integers(0, 10**6))
    def test_v2_reads_back_what_v1_did(self, tmp_path_factory, result, index):
        path = tmp_path_factory.mktemp("wal") / "c.ckpt"
        with CheckpointWriter(path) as w:
            w.write_header()
            w.append_result(index, result_to_doc(result))
            w.write_snapshot(t=0.0, results_count=0)
        v2_doc = json.loads(path.read_text().splitlines()[-2])
        v1_doc = json.loads(
            v1_line({"type": "result", "i": index, **result_to_doc(result)})
        )
        assert v2_doc["i"] == v1_doc["i"] == index
        got, want = result_from_doc(v2_doc), result_from_doc(v1_doc)
        for name in ("tag_id", "estimator", "degraded", "reason"):
            assert getattr(got, name) == getattr(want, name) == getattr(
                result, name
            )
        for name in ("requested_at_s", "completed_at_s",
                     "processing_latency_s"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name))
            assert _bits(getattr(got, name)) == _bits(getattr(result, name))
        assert list(map(_bits, got.position)) == list(
            map(_bits, want.position)
        ) == list(map(_bits, result.position))
        # Diagnostics come back as plain JSON types, equal in content
        # (NaN included) to what version 1 gave back.
        assert json.dumps(got.diagnostics, sort_keys=True) == json.dumps(
            want.diagnostics, sort_keys=True
        )
