"""Unit tests of the observability layer: tracer, trace files, profiling.

The determinism contract under test (see ``docs/OBSERVABILITY.md``):
the *logical* portion of a trace — names, tree structure, attributes,
sim-clock timestamps — is a pure function of the seeded run, while the
wall-clock annotation rides along separately and never leaks into the
logical view.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, EstimationError
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    TraceWriter,
    canonical_logical_json,
    current_tracer,
    diff_documents,
    format_summary,
    ladder_breakdown,
    logical_documents,
    read_trace,
    stage_statistics,
    use_tracer,
)
from repro.obs.tracer import to_jsonable


class FakeWall:
    """A deterministic wall clock: each call advances by ``step``."""

    def __init__(self, step=0.010):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer(wall_clock=FakeWall())
        with tracer.span("a", x=1):
            with tracer.span("b"):
                pass
            with tracer.span("c", y="z"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "a"
        assert [c.name for c in root.children] == ["b", "c"]
        assert root.attrs == {"x": 1}
        assert tracer.spans_recorded == 3

    def test_sim_clock_stamps_t_and_wall_is_separate(self):
        clock_values = iter([10.0, 10.5, 11.0])
        tracer = Tracer(
            clock=lambda: next(clock_values), wall_clock=FakeWall()
        )
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        assert outer.t == 10.0
        assert outer.children[0].t == 10.5
        assert outer.wall_s > 0
        doc = outer.document()
        assert "wall_s" in doc
        assert "wall_s" not in outer.logical()
        assert "wall_s" not in outer.logical()["children"][0]

    def test_no_clock_omits_t(self):
        tracer = Tracer()
        with tracer.span("solo"):
            pass
        assert "t" not in tracer.roots[0].document()

    def test_set_and_update_coerce_values(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.set("arr_scalar", np.float64(2.5))
            span.update(count=np.int64(3), flag=True, name=None)
        attrs = tracer.roots[0].attrs
        assert attrs == {"arr_scalar": 2.5, "count": 3, "flag": True,
                         "name": None}
        assert type(attrs["arr_scalar"]) is float
        assert type(attrs["count"]) is int

    def test_error_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(EstimationError):
            with tracer.span("failing"):
                raise EstimationError("empty intersection")
        assert tracer.roots[0].attrs["error"] == "EstimationError"

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        a = tracer.span("a")
        tracer.span("b")  # still open
        with pytest.raises(ConfigurationError, match="out of order"):
            a.__exit__(None, None, None)

    def test_event_is_a_leaf_span(self):
        tracer = Tracer()
        with tracer.span("parent"):
            tracer.event("runtime.retry", task=3, attempt=2)
        (child,) = tracer.roots[0].children
        assert child.name == "runtime.retry"
        assert child.attrs == {"task": 3, "attempt": 2}
        assert not child.children

    def test_sink_receives_only_roots(self):
        seen = []
        tracer = Tracer(sink=seen.append)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert [s.name for s in seen] == ["root"]

class TestToJsonable:
    def test_scalars_pass_through(self):
        for v in ("x", 3, 2.5, True, None):
            assert to_jsonable(v) == v

    def test_numpy_scalars_become_python(self):
        assert to_jsonable(np.float32(1.5)) == 1.5
        assert to_jsonable(np.bool_(True)) is True

    def test_containers_recurse_and_sets_sort(self):
        out = to_jsonable({"k": (1, np.int64(2)), "s": {"b", "a"}})
        assert out == {"k": [1, 2], "s": ["a", "b"]}

    def test_unknown_objects_stringify(self):
        class Weird:
            def __repr__(self):
                return "Weird()"

        assert to_jsonable(Weird()) == "Weird()"


class TestAmbientTracer:
    def test_default_is_the_null_tracer(self):
        assert current_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_null_tracer_is_allocation_free_noop(self):
        span = NULL_TRACER.span("anything", huge=list(range(3)))
        with span as s:
            s.set("k", 1)
            s.update(x=2)
        assert NULL_TRACER.span("other") is span  # shared instance
        assert NULL_TRACER.event("e") is None

    def test_null_span_does_not_swallow_exceptions(self):
        with pytest.raises(ValueError):
            with NullTracer().span("x"):
                raise ValueError("must propagate")

    def test_use_tracer_scopes_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer) as active:
            assert active is tracer
            assert current_tracer() is tracer
            inner = Tracer()
            with use_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER


def _record_sample(path):
    """A tiny two-root trace written through the real writer."""
    with TraceWriter(path, meta={"seed": 7, "env": "Env1"}) as writer:
        tracer = Tracer(
            clock=iter([1.0, 1.5, 2.0]).__next__, wall_clock=FakeWall()
        )
        tracer.sink = writer.sink
        with tracer.span("service.tick", tick_s=1.0):
            with tracer.span("service.serve", tag="asset", level=1,
                             estimator="VIRE"):
                pass
        with tracer.span("runtime.snapshot", t_cut=2.0):
            pass
    return writer


class TestTraceFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = _record_sample(path)
        assert writer.spans_written == 2
        header, docs = read_trace(path)
        assert header["format"] == "repro-trace"
        assert header["seed"] == 7
        assert [d["name"] for d in docs] == [
            "service.tick", "runtime.snapshot",
        ]
        assert docs[0]["children"][0]["attrs"]["tag"] == "asset"

    def test_write_after_close_raises(self, tmp_path):
        writer = _record_sample(tmp_path / "t.jsonl")
        span = Tracer(wall_clock=FakeWall()).span("late")
        span.__exit__(None, None, None)
        with pytest.raises(ConfigurationError, match="closed"):
            writer.sink(span)

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot open"):
            TraceWriter(tmp_path / "no-such-dir" / "t.jsonl")

    def test_missing_empty_and_headerless_files(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            read_trace(tmp_path / "absent.jsonl")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ConfigurationError, match="is empty"):
            read_trace(empty)
        alien = tmp_path / "alien.jsonl"
        alien.write_text('{"hello": "world"}\n')
        with pytest.raises(ConfigurationError, match="not a repro-trace"):
            read_trace(alien)

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _record_sample(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"name": "half-writ')  # crash mid-line
        _, docs = read_trace(path)
        assert [d["name"] for d in docs] == [
            "service.tick", "runtime.snapshot",
        ]

    def test_corrupt_line_ends_the_readable_prefix(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _record_sample(path)
        good = path.read_bytes().splitlines()[1]
        for bad in (b"\xff\xfe{}", b"[1,2]", b'{"children": [1]}', b"7"):
            path_bad = tmp_path / "bad.jsonl"
            path_bad.write_bytes(path.read_bytes() + bad + b"\n" + good + b"\n")
            _, docs = read_trace(path_bad)
            assert [d["name"] for d in docs] == [
                "service.tick", "runtime.snapshot",
            ], bad
            logical_documents(docs)

    def test_non_utf8_header_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"\xff\xfe\n")
        with pytest.raises(ConfigurationError, match="no parsable header"):
            read_trace(path)

    def test_logical_view_strips_wall_recursively(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _record_sample(path)
        _, docs = read_trace(path)
        flat = json.dumps(logical_documents(docs))
        assert "wall_s" not in flat
        assert '"t"' in flat  # sim time survives

    def test_canonical_json_is_stable_across_recordings(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _record_sample(a)
        _record_sample(b)
        _, docs_a = read_trace(a)
        _, docs_b = read_trace(b)
        # Wall clocks differ call-by-call in real recordings; the fake
        # wall makes them equal here, so force a difference to prove the
        # canonical form ignores it.
        docs_b[0]["wall_s"] = 123.0
        assert canonical_logical_json(docs_a) == canonical_logical_json(docs_b)


class TestDiffDocuments:
    def _docs(self):
        _, docs = (lambda p: (_record_sample(p), read_trace(p))[1])(
            self.tmp_path / "d.jsonl"
        )
        return docs

    @pytest.fixture(autouse=True)
    def _tmp(self, tmp_path):
        self.tmp_path = tmp_path

    def test_identical_traces_agree(self):
        docs = self._docs()
        assert diff_documents(docs, docs) == []

    def test_wall_only_difference_is_invisible_logically(self):
        docs = self._docs()
        other = json.loads(json.dumps(docs))
        other[0]["wall_s"] = 99.0
        assert diff_documents(docs, other) == []
        assert diff_documents(docs, other, logical=False)

    def test_attribute_divergence_is_located_by_path(self):
        docs = self._docs()
        other = json.loads(json.dumps(docs))
        other[0]["children"][0]["attrs"]["level"] = 3
        (diff,) = diff_documents(docs, other)
        assert "[0].children[0].attrs.level" in diff
        assert "A=1" in diff and "B=3" in diff

    def test_root_count_divergence(self):
        docs = self._docs()
        diffs = diff_documents(docs, docs[:1])
        assert any("root span count" in d for d in diffs)

    def test_max_diffs_caps_output(self):
        docs = self._docs()
        other = json.loads(json.dumps(docs))
        for doc in other:
            doc["name"] = "renamed"
            doc.setdefault("attrs", {})["extra"] = 1
        assert len(diff_documents(docs, other, max_diffs=1)) == 1


def _forest():
    """A small hand-built span forest with known timings."""
    return [
        {
            "name": "service.tick", "t": 1.0, "wall_s": 0.10,
            "children": [
                {
                    "name": "service.batch", "wall_s": 0.08,
                    "children": [
                        {"name": "service.serve", "wall_s": 0.01,
                         "attrs": {"level": 1, "estimator": "VIRE"}},
                        {"name": "service.serve", "wall_s": 0.02,
                         "attrs": {"level": 3, "estimator": "LANDMARC",
                                   "reason": "quorum_unmet"}},
                        {"name": "service.serve", "wall_s": 0.01,
                         "attrs": {"failed": True, "reason": "no_reading"}},
                    ],
                },
            ],
        },
        {"name": "runtime.snapshot", "wall_s": 0.005},
    ]


class TestProfiling:
    def test_stage_statistics_self_time_excludes_children(self):
        stats = stage_statistics(_forest())
        tick = stats["service.tick"]
        assert tick.count == 1
        assert tick.total_s == pytest.approx(0.10)
        assert tick.self_s == pytest.approx(0.02)  # 0.10 - 0.08 child
        batch = stats["service.batch"]
        assert batch.self_s == pytest.approx(0.08 - 0.04)
        serve = stats["service.serve"]
        assert serve.count == 3
        assert serve.p50_s == pytest.approx(0.01)
        assert serve.max_s == pytest.approx(0.02)

    def test_ladder_breakdown_counts_decisions(self):
        ladder = ladder_breakdown(_forest())
        assert ladder["serves"] == 3
        assert ladder["levels"] == {"1": 1, "3": 1, "?": 1}
        assert ladder["reasons"] == {"no_reading": 1, "quorum_unmet": 1}
        assert ladder["estimators"] == {"LANDMARC": 1, "VIRE": 1}

    def test_format_summary_renders_tables_and_ladder(self):
        text = format_summary({"seed": 7, "env": "Env1"}, _forest(), top=5)
        assert "2 root spans, 6 total" in text
        assert "env=Env1, seed=7" in text
        assert "stage" in text and "service.batch" in text
        assert "ladder breakdown over 3 served requests" in text
        assert "full VIRE" in text and "LANDMARC fallback" in text
        assert "degradation reasons: no_reading=1, quorum_unmet=1" in text

    def test_summary_without_service_spans_skips_ladder(self):
        text = format_summary({}, [{"name": "vire.estimate", "wall_s": 0.01}])
        assert "ladder breakdown" not in text

    def test_logical_trace_still_summarizes(self):
        """Canonicalized traces (no wall_s) keep counts and structure."""
        stats = stage_statistics(logical_documents(_forest()))
        assert stats["service.serve"].count == 3
        assert stats["service.serve"].total_s == 0.0


# -- fuzz: torn and corrupt trace files -----------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "children", "t", "x"]), inner, max_size=3),
    max_leaves=8,
)
_lines = st.one_of(
    st.binary(max_size=24).filter(lambda b: b"\n" not in b and b"\r" not in b),
    _json_values.map(lambda v: json.dumps(v).encode()),
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    where=st.integers(0, 3),
    lines=st.lists(_lines, min_size=1, max_size=4),
    cut=st.integers(0, 400),
)
def test_fuzzed_trace_reads_a_prefix_or_raises_a_typed_error(
    tmp_path, where, lines, cut
):
    """Any mangled file either loads a prefix of the recorded roots, all
    usable by the logical view, or raises ``ConfigurationError``."""
    path = tmp_path / "fuzz.jsonl"
    _record_sample(path)
    original = path.read_bytes().splitlines()
    _, recorded = read_trace(path)
    mangled = list(original)
    mangled[where:where] = lines
    data = b"\n".join(mangled) + b"\n"
    if cut:
        data = data[: max(len(data) - cut, 0)]  # torn tail
    path.write_bytes(data)
    try:
        header, docs = read_trace(path)
    except ConfigurationError:
        return
    assert isinstance(header, dict)
    canonical_logical_json(docs)  # the logical view never trips
    # Roots recorded before the inserted lines, and not torn by the cut,
    # are all read back.
    intact = sum(
        1
        for i in range(1, max(where, 1))
        if len(b"\n".join(original[: i + 1])) <= len(data)
    )
    assert docs[:intact] == recorded[:intact]
