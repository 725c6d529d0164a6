"""Trace-context propagation: wire format, defensive parsing, caps.

The federation headers are parsed from untrusted peers, so every test
here doubles as a security property: malformed input is *ignored*,
never an error, and IDs can never smuggle header-injection bytes.
"""

import json

import pytest

from repro import obs
from repro.obs import propagate
from repro.obs.propagate import (
    MAX_SPAN_HEADER_BYTES,
    MAX_SPAN_NODES,
    MAX_TRACE_HEADER_BYTES,
    TraceContext,
    decode_span_header,
    encode_span_header,
    extract_context,
    outbound_headers,
    parse_trace_header,
    span_from_payload,
)
from repro.obs.trace import Span

# not of the form the local tracer mints (a zero-padded counter), so a
# locally started trace can never equal it whatever ran before
VALID_TRACE = "4bf92f3577b34da6a3ce929d0e0e4736"
VALID_HEADER = f"00-{VALID_TRACE}-00ab"
# well-formed but counter-shaped: the parser must not care which form a
# trace id takes, only that it is 32 lowercase hex digits
COUNTER_TRACE = "0" * 31 + "7"


@pytest.fixture
def tracing():
    with obs.overridden(enabled=True):
        obs.clear_traces()
        yield
        obs.clear_traces()


class TestParseTraceHeader:
    def test_round_trip(self):
        context = TraceContext(VALID_TRACE, "00ab")
        assert parse_trace_header(context.header_value()) == context

    def test_valid_header_parses(self):
        context = parse_trace_header(VALID_HEADER)
        assert context.trace_id == VALID_TRACE
        assert context.span_id == "00ab"

    @pytest.mark.parametrize("bad", [
        None,
        "",
        42,
        "garbage",
        "00-short-00ab",                        # trace id not 32 chars
        f"01-{COUNTER_TRACE}-00ab",             # unknown version
        f"00-{COUNTER_TRACE}-00AB",             # uppercase span id rejected
        f"00-{VALID_TRACE.upper()}-00ab",       # uppercase trace id rejected
        f"00-{COUNTER_TRACE}-",                 # empty span id
        f"00-{COUNTER_TRACE}-00ab-extra",       # too many fields
        f"00-{COUNTER_TRACE}-0123456789abcdef0",  # span id > 16 chars
        f"00-{'g' * 32}-00ab",                  # non-hex trace id
    ])
    def test_malformed_headers_ignored(self, bad):
        assert parse_trace_header(bad) is None

    def test_oversized_header_ignored(self):
        assert parse_trace_header("0" * (MAX_TRACE_HEADER_BYTES + 1)) is None

    def test_header_injection_is_structurally_impossible(self):
        # CR/LF (and anything outside lowercase hex) fails the charset
        # check, so a crafted ID can never become a header separator
        evil = "00-" + "a" * 30 + "\r\n" + "-00ab"
        assert parse_trace_header(evil) is None
        assert parse_trace_header(f"00-{VALID_TRACE}-ab\r\nX: y") is None

    def test_extract_context_reads_the_mapping(self):
        headers = {propagate.TRACE_HEADER: VALID_HEADER}
        assert extract_context(headers) == TraceContext(VALID_TRACE, "00ab")
        assert extract_context(None) is None
        assert extract_context({}) is None


class TestOutboundHeaders:
    def test_untraced_fetch_carries_nothing(self):
        with obs.overridden(enabled=False):
            assert outbound_headers() == {}

    def test_no_open_span_carries_nothing(self, tracing):
        assert outbound_headers() == {}

    def test_open_span_is_injected(self, tracing):
        with obs.span("fetch") as sp:
            headers = outbound_headers()
            context = parse_trace_header(headers[propagate.TRACE_HEADER])
            assert context.span_id == sp.span_id
            assert context.trace_id == sp.trace_id
            assert len(context.trace_id) == 32

    def test_injection_counted_in_metrics(self, tracing):
        registry = obs.get_registry()
        before = registry.counter(
            "powerplay_trace_propagation_total", "", ("op",)
        ).value(op="inject")
        with obs.span("fetch"):
            outbound_headers()
        after = registry.counter(
            "powerplay_trace_propagation_total", "", ("op",)
        ).value(op="inject")
        assert after == before + 1


class TestSpanHeaderRoundTrip:
    def _tree(self):
        root = Span("http_request", "0a01", {"route": "/api/model"})
        root.duration = 0.004
        root.trace_id = VALID_TRACE
        child = Span("design", "0a02", {"name": "fig3"})
        child.duration = 0.003
        root.children.append(child)
        return root

    def test_encode_decode_round_trip(self):
        decoded = decode_span_header(encode_span_header(self._tree()))
        assert decoded.name == "http_request"
        assert decoded.remote is True
        assert decoded.duration == pytest.approx(0.004)
        assert decoded.trace_id == VALID_TRACE
        assert decoded.children[0].name == "design"
        assert decoded.children[0].remote is True
        assert decoded.children[0].attributes == {"name": "fig3"}

    def test_encoded_header_is_single_line(self):
        root = self._tree()
        root.set(note="line one\nline two")
        encoded = encode_span_header(root)
        assert "\n" not in encoded and "\r" not in encoded

    def test_oversized_tree_truncates_to_root_stub(self):
        root = self._tree()
        for index in range(2000):
            leaf = Span("leaf", f"{index:04x}", {"payload": "x" * 64})
            leaf.duration = 0.001
            root.children.append(leaf)
        encoded = encode_span_header(root)
        assert 0 < len(encoded) <= MAX_SPAN_HEADER_BYTES
        decoded = decode_span_header(encoded)
        assert decoded.children == []
        assert decoded.attributes["truncated"] is True

    @pytest.mark.parametrize("bad", [
        None,
        "",
        "not json",
        "[1,2,3]",
        '{"name": "x"}',                               # missing fields
        '{"name": "", "span_id": "a", "duration_s": 1}',
        '{"name": "x", "span_id": "a", "duration_s": -1}',
        '{"name": "x", "span_id": "a", "duration_s": "soon"}',
    ])
    def test_malformed_span_headers_ignored(self, bad):
        assert decode_span_header(bad) is None

    def test_oversized_span_header_ignored(self):
        assert decode_span_header("x" * (MAX_SPAN_HEADER_BYTES + 1)) is None

    def test_node_budget_rejects_bushy_trees(self):
        payload = {
            "name": "root", "span_id": "01", "duration_s": 1.0,
            "attributes": {},
            "children": [
                {"name": f"c{i}", "span_id": f"{i:x}", "duration_s": 0.0,
                 "attributes": {}, "children": []}
                for i in range(MAX_SPAN_NODES + 1)
            ],
        }
        assert span_from_payload(payload) is None

    def test_depth_cap_rejects_deep_trees(self):
        payload = {"name": "n0", "span_id": "0", "duration_s": 0.0,
                   "attributes": {}, "children": []}
        node = payload
        for index in range(40):
            child = {"name": f"n{index + 1}", "span_id": f"{index:x}",
                     "duration_s": 0.0, "attributes": {}, "children": []}
            node["children"] = [child]
            node = child
        assert span_from_payload(payload) is None

    def test_attribute_values_are_stringified_and_clipped(self):
        payload = {
            "name": "x", "span_id": "a", "duration_s": 0.0,
            "attributes": {"blob": ["a"] * 500, "n": 3, "ok": True},
            "children": [],
        }
        node = span_from_payload(payload)
        assert isinstance(node.attributes["blob"], str)
        assert len(node.attributes["blob"]) <= 256
        assert node.attributes["n"] == 3
        assert node.attributes["ok"] is True

    def test_forged_ids_in_payload_are_dropped(self):
        # trace/parent IDs failing the hex charset are silently omitted
        payload = {
            "name": "x", "span_id": "a", "duration_s": 0.0,
            "attributes": {}, "children": [],
            "trace_id": "EVIL\r\n" + "0" * 26, "parent_id": "nope!",
        }
        node = span_from_payload(payload)
        assert node.trace_id == ""
        assert node.parent_id == ""

    def test_decode_metrics_count_both_outcomes(self):
        with obs.overridden(enabled=True):
            counter = obs.get_registry().counter(
                "powerplay_trace_propagation_total", "", ("op",)
            )
            ok_before = counter.value(op="graft")
            bad_before = counter.value(op="graft_ignored")
            decode_span_header(encode_span_header(self._tree()))
            decode_span_header("not json")
            assert counter.value(op="graft") == ok_before + 1
            assert counter.value(op="graft_ignored") == bad_before + 1


class TestContextAdoption:
    def test_root_span_adopts_the_remote_context(self, tracing):
        context = TraceContext(VALID_TRACE, "00ab")
        with obs.traced("http_request", context) as sp:
            assert sp.trace_id == VALID_TRACE
            assert sp.parent_id == "00ab"
            # nested spans inherit the adopted trace id
            with obs.span("inner") as inner:
                assert inner.trace_id == VALID_TRACE
                assert inner.parent_id == ""

    def test_nested_span_never_adopts(self, tracing):
        context = TraceContext(VALID_TRACE, "00ab")
        with obs.span("local_root") as root:
            with obs.traced("nested", context) as sp:
                assert sp.trace_id == root.trace_id
                assert sp.trace_id != VALID_TRACE
                assert sp.parent_id == ""

    def test_traced_without_context_matches_span(self, tracing):
        with obs.traced("plain", None) as sp:
            assert len(sp.trace_id) == 32

    def test_payload_carries_adopted_identity(self, tracing):
        context = TraceContext(VALID_TRACE, "00ab")
        with obs.traced("http_request", context):
            pass
        payload = obs.last_trace().to_payload()
        assert payload["trace_id"] == VALID_TRACE
        assert payload["parent_id"] == "00ab"
        # and it survives the full wire round trip
        decoded = decode_span_header(json.dumps(payload))
        assert decoded.trace_id == VALID_TRACE
        assert decoded.parent_id == "00ab"
