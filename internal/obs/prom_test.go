package obs

import (
	"strings"
	"testing"
)

// TestPrometheusGolden pins the full exposition output: family
// grouping, HELP/TYPE headers, as-scope label lifting, name
// sanitization, and cumulative histogram buckets.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Scope("as7.").Counter("ctrl.msgs_sent").Add(3)
	r.Scope("as1001.").Counter("ctrl.msgs_sent").Add(5)
	r.Counter("netsim.delivered").Add(42)
	r.Counter("weird-name.1xx/total").Add(1) // sanitization
	r.Scope("as7.").Gauge("ctrl.peers_established").Set(2)
	r.Gauge("parsim.workers").Set(-1) // negative gauges are legal
	h := r.Histogram("epoch.stall_ns", []int64{100, 1000})
	h.Observe(50)
	h.Observe(150)
	h.Observe(5000)
	// Per-peer suffix convention: lifted into a peer label, dotted
	// peer names intact, composing with the as-scope label.
	r.Scope("as7.").Counter("transport.bytes_sent.peer.ctrl.as9").Add(640)
	r.Scope("as7.").Counter("transport.bytes_sent.peer.ctrl.as1002").Add(64)
	r.Counter("transport.frames_dropped.peer.ctrl.as9").Add(2)

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b, "discs"); err != nil {
		t.Fatal(err)
	}
	want := `# HELP discs_ctrl_msgs_sent DISCS metric ctrl.msgs_sent.
# TYPE discs_ctrl_msgs_sent counter
discs_ctrl_msgs_sent{as="1001"} 5
discs_ctrl_msgs_sent{as="7"} 3
# HELP discs_ctrl_peers_established DISCS metric ctrl.peers_established.
# TYPE discs_ctrl_peers_established gauge
discs_ctrl_peers_established{as="7"} 2
# HELP discs_epoch_stall_ns DISCS metric epoch.stall_ns.
# TYPE discs_epoch_stall_ns histogram
discs_epoch_stall_ns_bucket{le="+Inf"} 3
discs_epoch_stall_ns_bucket{le="100"} 1
discs_epoch_stall_ns_bucket{le="1000"} 2
discs_epoch_stall_ns_count 3
discs_epoch_stall_ns_sum 5200
# HELP discs_netsim_delivered DISCS metric netsim.delivered.
# TYPE discs_netsim_delivered counter
discs_netsim_delivered 42
# HELP discs_parsim_workers DISCS metric parsim.workers.
# TYPE discs_parsim_workers gauge
discs_parsim_workers -1
# HELP discs_transport_bytes_sent DISCS metric transport.bytes_sent.
# TYPE discs_transport_bytes_sent counter
discs_transport_bytes_sent{as="7",peer="ctrl.as1002"} 64
discs_transport_bytes_sent{as="7",peer="ctrl.as9"} 640
# HELP discs_transport_frames_dropped DISCS metric transport.frames_dropped.
# TYPE discs_transport_frames_dropped counter
discs_transport_frames_dropped{peer="ctrl.as9"} 2
# HELP discs_weird_name_1xx_total DISCS metric weird-name.1xx/total.
# TYPE discs_weird_name_1xx_total counter
discs_weird_name_1xx_total 1
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrometheusNameEdgeCases covers the sanitizer and scope-splitter
// corners that the golden test does not reach.
func TestPrometheusNameEdgeCases(t *testing.T) {
	cases := []struct {
		in, rest, as string
	}{
		{"as7.ctrl.x", "ctrl.x", "7"},
		{"as44036.router.in_verified", "router.in_verified", "44036"},
		{"as.ctrl.x", "as.ctrl.x", ""}, // no digits
		{"as7", "as7", ""},             // no dot
		{"as7.", "as7.", ""},           // empty rest
		{"assume.ctrl.x", "assume.ctrl.x", ""},
		{"netsim.sent", "netsim.sent", ""},
	}
	for _, c := range cases {
		rest, as := splitASScope(c.in)
		if rest != c.rest || as != c.as {
			t.Errorf("splitASScope(%q) = (%q, %q), want (%q, %q)", c.in, rest, as, c.rest, c.as)
		}
	}
	peerCases := []struct {
		in, base, peer string
	}{
		{"transport.bytes_sent.peer.ctrl.as9", "transport.bytes_sent", "ctrl.as9"},
		{"transport.queue_depth.peer.a.b.c", "transport.queue_depth", "a.b.c"},
		{"transport.bytes_sent", "transport.bytes_sent", ""},
		{"peer.x", "peer.x", ""},   // marker must not lead
		{"a.peer.", "a.peer.", ""}, // empty peer name
		{"ctrl.msgs_sent", "ctrl.msgs_sent", ""},
	}
	for _, c := range peerCases {
		base, peer := splitPeerSuffix(c.in)
		if base != c.base || peer != c.peer {
			t.Errorf("splitPeerSuffix(%q) = (%q, %q), want (%q, %q)", c.in, base, peer, c.base, c.peer)
		}
	}
	if got := promName("", "7starts.with.digit"); got != "_7starts_with_digit" {
		t.Errorf("promName digit prefix = %q", got)
	}
	if got := promName("discs", "a:b"); got != "discs_a:b" {
		t.Errorf("promName colon = %q", got)
	}
}
