"""Unit tests for the tracing substrate: TraceSink, Span, render helpers.

Most of these exercise the sink in isolation against a stub environment
(all the sink needs is ``.now`` and a ``tracer`` slot).  The last section
follows single alerts through a small live world: the happy path's hops
in time order and the IM-outage fallback to email.  The farm-scale
properties (byte-identical journals, stable goldens, oracle integration)
live in ``test_trace_golden.py`` / ``test_trace_oracle.py``.
"""

import pickle

from repro.net import LatencyModel
from repro.obs import (
    LIFECYCLE_PREFIX,
    Span,
    TraceSink,
    attribute_spans,
    lifecycle_trace,
    render_attribution,
    render_span_tree,
)
from repro.sim import MINUTE
from repro.world import SimbaWorld, WorldConfig


class FakeEnv:
    """Just enough environment for a sink: a clock and a tracer slot."""

    def __init__(self):
        self.now = 0.0
        self.tracer = None


def make_sink(**kwargs):
    env = FakeEnv()
    return TraceSink(**kwargs).install(env), env


class TestLifecycleTrace:
    def test_prefix(self):
        assert lifecycle_trace("mdc:user0") == "lifecycle:mdc:user0"
        assert lifecycle_trace("x").startswith(LIFECYCLE_PREFIX)


class TestSpan:
    def test_open_span_duration_zero(self):
        span = Span(span_id=1, trace_id="a", name="x", start=3.0)
        assert not span.closed
        assert span.duration == 0.0

    def test_closed_span_duration(self):
        span = Span(span_id=1, trace_id="a", name="x", start=3.0, end=5.5)
        assert span.closed
        assert span.duration == 2.5

    def test_to_row_omits_unset_fields(self):
        span = Span(span_id=7, trace_id="a", name="x", start=1.0)
        row = span.to_row()
        assert row == {
            "span_id": 7, "trace_id": "a", "name": "x", "start": "1.0",
        }

    def test_to_row_floats_via_repr_and_sorted_annotations(self):
        span = Span(
            span_id=1, trace_id="a", name="x", start=0.1, end=0.3,
            outcome="ok", annotations={"zeta": 0.2, "alpha": "v"},
        )
        row = span.to_row()
        assert row["start"] == repr(0.1)
        assert row["end"] == repr(0.3)
        assert list(row["annotations"]) == ["alpha", "zeta"]
        assert row["annotations"]["zeta"] == repr(0.2)

    def test_to_row_trace_id_override(self):
        span = Span(span_id=1, trace_id="alert-9", name="x", start=0.0)
        assert span.to_row("A1")["trace_id"] == "A1"


class TestTraceSinkRecording:
    def test_span_ids_are_sequential_from_one(self):
        sink, _ = make_sink()
        a = sink.begin("t", "first")
        b = sink.begin("t", "second")
        c = sink.event("u", "third")
        assert (a.span_id, b.span_id, c.span_id) == (1, 2, 3)

    def test_begin_uses_env_now_and_retroactive_start(self):
        sink, env = make_sink()
        env.now = 10.0
        live = sink.begin("t", "live")
        retro = sink.begin("t", "transit", start=4.0)
        assert live.start == 10.0
        assert retro.start == 4.0

    def test_end_records_now_outcome_and_annotations(self):
        sink, env = make_sink()
        span = sink.begin("t", "op", color="red")
        env.now = 2.0
        sink.end(span, "failed", reason="timeout")
        assert span.end == 2.0
        assert span.outcome == "failed"
        assert span.annotations == {"color": "red", "reason": "timeout"}

    def test_event_is_zero_duration(self):
        sink, env = make_sink()
        env.now = 7.0
        span = sink.event("t", "promoted", epoch=2)
        assert span.closed
        assert span.start == span.end == 7.0
        assert span.duration == 0.0
        assert span.outcome == "ok"

    def test_parent_threading(self):
        sink, _ = make_sink()
        root = sink.begin("t", "root")
        child = sink.begin("t", "child", parent=root.span_id)
        assert child.parent_id == root.span_id

    def test_reading_api(self):
        sink, _ = make_sink()
        sink.begin("b", "one")
        sink.begin("a", "two")
        sink.begin("b", "one")
        assert sink.trace_ids() == ["b", "a"]  # first-appearance order
        assert [s.name for s in sink.spans("b")] == ["one", "one"]
        assert sink.spans("missing") == []
        assert sink.span_count() == 3
        assert len(sink.find_spans("one")) == 2
        assert len(list(sink.all_spans())) == 3

    def test_spans_returns_a_copy(self):
        sink, _ = make_sink()
        sink.begin("t", "x")
        sink.spans("t").clear()
        assert sink.span_count() == 1


class TestTraceSinkBounds:
    def test_trace_eviction_is_oldest_first_and_counted(self):
        sink, _ = make_sink(max_traces=2)
        sink.begin("t1", "a")
        sink.begin("t1", "b")
        sink.begin("t2", "c")
        sink.begin("t3", "d")  # evicts t1 (2 spans)
        assert sink.trace_ids() == ["t2", "t3"]
        assert sink.dropped_traces == 1
        assert sink.dropped_spans == 2

    def test_span_cap_per_trace(self):
        sink, _ = make_sink(max_spans_per_trace=2)
        sink.begin("t", "a")
        sink.begin("t", "b")
        extra = sink.begin("t", "c")
        assert sink.span_count() == 2
        assert sink.dropped_spans == 1
        # The uncounted span is still returned so the call site can
        # end() it without a None check.
        sink.end(extra, "ok")
        assert sink.span_count() == 2

    def test_defaults_never_evict_in_small_runs(self):
        sink, _ = make_sink()
        for i in range(50):
            sink.begin(f"t{i}", "x")
        assert sink.dropped_traces == 0
        assert sink.dropped_spans == 0


class TestTraceSinkInstall:
    def test_install_sets_tracer_slot(self):
        env = FakeEnv()
        sink = TraceSink().install(env)
        assert env.tracer is sink
        assert sink.env is env

    def test_uninstall_clears_slot(self):
        sink, env = make_sink()
        sink.uninstall()
        assert env.tracer is None
        assert sink.env is None

    def test_uninstall_leaves_a_newer_tracer_alone(self):
        env = FakeEnv()
        old = TraceSink().install(env)
        new = TraceSink().install(env)
        old.uninstall()
        assert env.tracer is new

    def test_pickle_drops_env_keeps_spans(self):
        sink, env = make_sink()
        env.now = 1.5
        sink.end(sink.begin("t", "op"), "ok")
        clone = pickle.loads(pickle.dumps(sink))
        assert clone.env is None
        assert [s.name for s in clone.spans("t")] == ["op"]
        assert clone.spans("t")[0].end == 1.5


class TestTraceSinkExport:
    def _populated(self):
        sink, env = make_sink()
        root = sink.begin("alert-42", "source.deliver")
        env.now = 0.25
        sink.end(root, "delivered")
        sink.event(lifecycle_trace("mdc:user0"), "mdc.restart")
        return sink

    def test_to_payload_shape(self):
        payload = self._populated().to_payload()
        assert sorted(payload) == ["dropped_spans", "dropped_traces", "traces"]
        assert [t["trace_id"] for t in payload["traces"]] == [
            "alert-42", "lifecycle:mdc:user0",
        ]

    def test_to_payload_rename_applies_to_rows(self):
        def norm(tid):
            return "A1" if tid == "alert-42" else tid

        payload = self._populated().to_payload(rename=norm)
        first = payload["traces"][0]
        assert first["trace_id"] == "A1"
        assert all(row["trace_id"] == "A1" for row in first["spans"])

    def test_to_json_is_deterministic(self):
        assert self._populated().to_json() == self._populated().to_json()


class TestRenderSpanTree:
    def _spans(self):
        sink, env = make_sink()
        root = sink.begin("t", "root", mode="normal")
        child = sink.begin("t", "child", parent=root.span_id)
        env.now = 2.0
        sink.end(child, "done")
        sink.begin("t", "open-leaf", parent=child.span_id)
        sink.end(root, "ok")
        return sink.spans("t")

    def test_tree_indents_by_parenthood(self):
        text = render_span_tree(self._spans(), title="t")
        lines = text.splitlines()
        assert lines[0] == "trace t"
        assert lines[1].startswith("  root [ok]")
        assert lines[1].endswith("mode=normal")
        assert lines[2].startswith("    child [done]")
        assert lines[3].startswith("      open-leaf […]")
        assert "(open)" in lines[3]

    def test_orphan_parent_becomes_root(self):
        spans = [Span(span_id=5, trace_id="t", name="x", start=1.0,
                      parent_id=999, end=2.0, outcome="ok")]
        text = render_span_tree(spans)
        assert "  x [ok]" in text

    def test_empty(self):
        assert "(no spans)" in render_span_tree([])


class TestAttribution:
    def test_buckets(self):
        def closed(sid, name, start, end, parent=None, **ann):
            return Span(span_id=sid, trace_id="t", name=name, start=start,
                        end=end, parent_id=parent, outcome="ok",
                        annotations=ann)

        spans = [
            closed(1, "source.deliver", 0.0, 10.0),
            closed(2, "stage.route", 1.0, 7.0),
            closed(3, "deliver.user", 2.0, 6.0, parent=2),
            closed(4, "ack.wait", 2.0, 5.0),
            closed(5, "transit.IM", 2.0, 3.0),
            closed(6, "failover.handoff", 7.0, 9.0),
            Span(span_id=7, trace_id="t", name="stage.retry", start=9.0),
        ]
        buckets = attribute_spans(spans)
        assert buckets["end_to_end"] == 10.0
        # Route work minus the nested deliver.user wait: 6 - 4 = 2.
        assert buckets["stage:route"] == 2.0
        assert buckets["channel:ack_wait"] == 3.0
        assert buckets["channel:transit:IM"] == 1.0
        assert buckets["failover:handoff"] == 2.0
        assert "stage:retry" not in buckets  # open spans never count

    def test_end_to_end_falls_back_to_span_extent(self):
        spans = [Span(span_id=1, trace_id="t", name="stage.filter",
                      start=2.0, end=5.0, outcome="ok")]
        assert attribute_spans(spans)["end_to_end"] == 3.0

    def test_render_attribution_sorts_largest_first(self):
        text = render_attribution(
            {"end_to_end": 4.0, "stage:route": 1.0, "channel:ack_wait": 3.0}
        )
        lines = text.splitlines()
        assert lines[0] == "end_to_end: 4.00s"
        assert lines[1].startswith("  channel:ack_wait: 3.00s (75%)")
        assert lines[2].startswith("  stage:route: 1.00s (25%)")

    def test_render_attribution_empty(self):
        assert render_attribution({}) == "(no closed spans)"


# ---------------------------------------------------------------------------
# One alert's journey through a live world
# ---------------------------------------------------------------------------

IM_FIXED = LatencyModel(median=0.4, sigma=0.0, low=0.0, high=10.0)


def make_rig():
    """One user, one MAB and one source, with a TraceSink installed."""
    world = SimbaWorld(
        WorldConfig(seed=8, im_latency=IM_FIXED, email_loss=0.0, sms_loss=0.0)
    )
    TraceSink().install(world.env)
    user = world.create_user("alice", present=True)
    deployment = world.create_buddy(user)
    deployment.register_user_endpoint(user)
    deployment.subscribe("News", user, "normal", keywords=["News"])
    deployment.launch()
    source = world.create_source("portal")
    source.add_target(deployment.source_facing_book())
    deployment.config.classifier.accept_source("portal")
    return world, user, deployment, source


def first(spans, name, **annotations):
    return next(
        span for span in spans
        if span.name == name and all(
            span.annotations.get(key) == value
            for key, value in annotations.items()
        )
    )


def test_happy_path_trace_has_all_hops():
    world, user, deployment, source = make_rig()
    alert, _ = source.emit("News", "headline", "body")
    world.run(until=MINUTE)
    spans = world.env.tracer.spans(alert.alert_id)
    emitted = first(spans, "source.deliver")
    received = first(spans, "receive")
    ack = next(
        span for span in spans
        if span.name == "transit.IM" and span.parent_id == received.span_id
    )
    logged = deployment.log.entry_for_alert(alert.alert_id)
    routed = first(spans, "trip")
    to_user = first(spans, "transit.IM", recipient=user.im_address)
    (receipt,) = user.receipts_for(alert.alert_id)
    # Source, MAB log (written before the ack leaves), MAB, user: in order.
    assert (emitted.start <= received.start <= logged.received_at
            <= ack.start <= routed.start <= to_user.start)
    assert to_user.end == receipt.at
    assert emitted.outcome == "delivered"
    assert routed.outcome == "routed"
    text = render_span_tree(spans, title=alert.alert_id)
    assert "acked_by=IM" in text
    assert "deliver.user [delivered]" in text


def test_fallback_trace_shows_failed_block():
    world, user, deployment, source = make_rig()
    world.run(until=1.0)
    world.im.outage(10 * MINUTE)
    alert, _ = source.emit("News", "during outage", "body")
    world.run(until=30 * MINUTE)
    spans = world.env.tracer.spans(alert.alert_id)
    root = first(spans, "source.deliver")
    deliver = next(span for span in spans if span.parent_id == root.span_id)
    failed, fallback = [
        span for span in spans if span.parent_id == deliver.span_id
    ]
    assert failed.outcome in ("all_submissions_failed", "ack_timeout")
    assert fallback.outcome == "success"
    assert fallback.annotations["index"] == 1
    assert failed.end <= fallback.start
    # The email fallback carried the alert to the MAB.
    email = first(
        spans, "transit.EM", recipient=deployment.endpoint.email_address
    )
    assert email.parent_id == fallback.span_id
    assert first(spans, "receive").annotations["via"] == "EM"
    assert root.outcome == "delivered"


def test_unknown_alert_has_no_spans():
    world, user, deployment, source = make_rig()
    source.emit("News", "h", "b")
    world.run(until=MINUTE)
    assert world.env.tracer.spans("no-such-alert") == []
    assert "no-such-alert" not in world.env.tracer.trace_ids()


def test_recovery_report_renders_all_sections():
    from repro.metrics import recovery_report

    world, user, deployment, source = make_rig()
    mdc = None
    # Re-rig with an MDC-driven deployment for the full report.
    world2 = SimbaWorld(
        WorldConfig(seed=9, im_latency=IM_FIXED, email_loss=0.0, sms_loss=0.0)
    )
    user2 = world2.create_user("alice", present=True)
    deployment2 = world2.create_buddy(user2)
    deployment2.register_user_endpoint(user2)
    deployment2.subscribe("News", user2, "normal", keywords=["News"])
    mdc = world2.start_mdc(deployment2)
    source2 = world2.create_source("portal")
    source2.add_target(deployment2.source_facing_book())
    deployment2.config.classifier.accept_source("portal")

    def scenario(env):
        source2.emit("News", "h", "b")
        yield env.timeout(60.0)
        deployment2.current.crash()

    world2.env.process(scenario(world2.env))
    world2.run(until=30 * MINUTE)
    report = recovery_report(deployment2, mdc=mdc, user=user2)
    assert "MDC restarts of MAB" in report
    assert "alerts routed" in report
    assert "user: unique alerts received" in report
    assert "pessimistic-log entries" in report
