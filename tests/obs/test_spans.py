"""Span tracing: tree shape, the no-op disabled path, plain-dict export."""

from __future__ import annotations

import threading

import pytest

from repro.obs.spans import NOOP_SPAN, RECENT_SPAN_LIMIT, Span, Tracer


@pytest.fixture
def tracer():
    tracer = Tracer()
    tracer.enabled = True
    return tracer


class TestDisabledPath:
    def test_trace_returns_the_shared_noop(self):
        tracer = Tracer()
        first = tracer.trace("a", meta=1)
        second = tracer.trace("b")
        assert first is second  # one shared object: no allocation per call
        with first as span:
            assert span is NOOP_SPAN
        assert tracer.recent() == []
        assert tracer.current() is None

    def test_noop_span_surface(self):
        assert NOOP_SPAN.span_id == 0
        assert NOOP_SPAN.render() == ""
        assert NOOP_SPAN.to_dict() == {"name": "", "duration": 0.0}


class TestSpanTrees:
    def test_nesting_builds_a_tree(self, tracer):
        with tracer.trace("root") as root:
            with tracer.trace("child") as child:
                with tracer.trace("grandchild"):
                    pass
            with tracer.trace("sibling"):
                pass
        assert tracer.current() is None
        roots = tracer.recent()
        assert [span.name for span in roots] == ["root"]
        assert [span.name for span in root.children] == ["child", "sibling"]
        assert [span.name for span in child.children] == ["grandchild"]
        assert root.duration >= child.duration >= 0.0

    def test_meta_and_render(self, tracer):
        with tracer.trace("work", items=3):
            pass
        (span,) = tracer.recent()
        assert span.meta == {"items": 3}
        rendered = span.render()
        assert "work" in rendered and "items=3" in rendered and "ms" in rendered

    def test_finished_ring_is_bounded(self, tracer):
        for i in range(RECENT_SPAN_LIMIT + 10):
            with tracer.trace(f"s{i}"):
                pass
        roots = tracer.recent()
        assert len(roots) == RECENT_SPAN_LIMIT
        assert roots[-1].name == f"s{RECENT_SPAN_LIMIT + 9}"
        tracer.clear()
        assert tracer.recent() == []

    def test_threads_build_disjoint_trees(self, tracer):
        def worker(tag):
            with tracer.trace(f"root-{tag}"):
                with tracer.trace(f"inner-{tag}"):
                    pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        roots = tracer.recent()
        assert sorted(span.name for span in roots) == [f"root-{i}" for i in range(4)]
        for root in roots:
            assert [child.name for child in root.children] == [root.name.replace("root", "inner")]


class TestExport:
    def test_to_dict_exports_plain_builtins(self):
        span = Span("engine.check_batch_all", {"specs": 2})
        span.duration = 0.25
        child = Span("kernel.check")
        child.duration = 0.1
        span.children.append(child)
        assert span.to_dict() == {
            "name": "engine.check_batch_all",
            "duration": 0.25,
            "meta": {"specs": 2},
            "children": [{"name": "kernel.check", "duration": 0.1}],
        }
