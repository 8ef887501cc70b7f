package service_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"discs/internal/core"
	"discs/internal/service"
)

// waitCounter polls a node's metric until it reaches want or the
// deadline passes.
func waitCounter(t *testing.T, n *service.Node, name string, want uint64) uint64 {
	t.Helper()
	full := fmt.Sprintf("as%d.%s", n.AS(), name)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := n.Stats().Get(full)
		if got >= want {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", full, got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// scrape fetches one admin endpoint and returns status plus body.
func scrape(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	return resp.StatusCode, sb.String()
}

// promValue extracts the value of one exact series line from a
// Prometheus text exposition body.
func promValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not in exposition:\n%s", series, body)
	return 0
}

// TestFleetEndToEnd is the off-simulator acceptance run: a 3-node
// loopback fleet over real TCP+TLS peers, negotiates keys, deploys
// DP+CDP protection, and the loadgen's three traffic classes land
// where the paper says they should — legitimate flows stamped and
// verified, spoofed flows dropped at the source AS, unstamped
// injections dropped at the victim. The victim's live /metrics and
// /healthz endpoints observe it all.
func TestFleetEndToEnd(t *testing.T) {
	f, err := service.NewFleet(service.FleetOptions{N: 3, TLS: true, Admin: true, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WaitReady(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	const victim, src = 2, 0
	if err := f.Protect(victim, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Let the grace interval (50ms in fleet configs) lapse so CDP
	// verification enforces instead of erase-only.
	time.Sleep(200 * time.Millisecond)

	const flows = 20
	rep := f.Loadgen(src, victim, flows)
	if rep.LegitStamped != flows {
		t.Fatalf("legit stamped %d/%d", rep.LegitStamped, flows)
	}
	if rep.SpoofedBlocked != flows {
		t.Fatalf("spoofed blocked at source %d/%d", rep.SpoofedBlocked, flows)
	}
	if rep.RawInjected != flows {
		t.Fatalf("raw injected %d/%d", rep.RawInjected, flows)
	}

	// The victim delivered every legitimate flow and dropped every raw
	// injection; nothing was malformed.
	v := f.Nodes[victim]
	waitCounter(t, v, service.MetricNodeRxDelivered, flows)
	waitCounter(t, v, service.MetricNodeRxDropped, flows)
	waitCounter(t, v, core.MetricRouterInVerified, flows)
	if got := v.Stats().Get(fmt.Sprintf("as%d.%s", v.AS(), service.MetricNodeRxMalformed)); got != 0 {
		t.Fatalf("rx_malformed = %d", got)
	}

	// Live Prometheus scrape shows the verified counter.
	code, body := scrape(t, v.AdminAddr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	series := fmt.Sprintf(`discs_router_in_verified{as="%d"}`, v.AS())
	if got := promValue(t, body, series); got < flows {
		t.Fatalf("%s = %v, want >= %d", series, got, flows)
	}
	if !strings.Contains(body, "# TYPE discs_router_in_verified counter") {
		t.Fatal("missing TYPE header for discs_router_in_verified")
	}

	// The fleet is fully peered, so every node is healthy.
	for _, n := range f.Nodes {
		code, body := scrape(t, n.AdminAddr(), "/healthz")
		if code != http.StatusOK {
			t.Fatalf("%s /healthz status %d: %s", n.Name(), code, body)
		}
		var h service.Health
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatalf("%s /healthz body: %v", n.Name(), err)
		}
		if !h.OK() || len(h.Peers) != 2 {
			t.Fatalf("%s health = %+v", n.Name(), h)
		}
	}
}

// TestHealthzDegradesOnDeadPeer kills one node of a two-node fleet and
// watches the survivor's /healthz flip from ok to degraded once the
// heartbeat machinery declares the peer dead and purges it.
func TestHealthzDegradesOnDeadPeer(t *testing.T) {
	f, err := service.NewFleet(service.FleetOptions{
		N: 2, Admin: true, BaseSeed: 7,
		HeartbeatMS: 50, DeadAfterMisses: 2, ReconnectMS: 60000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WaitReady(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	alive := f.Nodes[0]
	code, _ := scrape(t, alive.AdminAddr(), "/healthz")
	if code != http.StatusOK {
		t.Fatalf("pre-kill /healthz status %d", code)
	}

	f.Nodes[1].Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := scrape(t, alive.AdminAddr(), "/healthz")
		if code == http.StatusServiceUnavailable {
			var h service.Health
			if err := json.Unmarshal([]byte(body), &h); err != nil {
				t.Fatal(err)
			}
			if h.Status != "degraded" {
				t.Fatalf("health = %+v", h)
			}
			if st := h.Peers[f.Nodes[1].Name()]; st != "dead" {
				t.Fatalf("peer state %q, want dead", st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("survivor never reported degraded")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// testConfig is a valid one-peer node config.
func testConfig(tb testing.TB) service.Config {
	tb.Helper()
	id, err := service.NodeIdentity("ctrl.as2", 5)
	if err != nil {
		tb.Fatal(err)
	}
	return service.Config{
		Name: "ctrl.as1", AS: 1, Listen: "127.0.0.1:0",
		Prefixes: map[string][]string{"1": {"10.0.0.0/16"}, "2": {"10.1.0.0/16"}},
		Peers:    []service.PeerConfig{{Name: "ctrl.as2", AS: 2, Addr: "127.0.0.1:9", Pub: service.PubHex(id)}},
	}
}

// configDefects are the structural defects Validate must reject, each
// applied to a copy of testConfig.
var configDefects = []struct {
	name   string
	mutate func(*service.Config)
}{
	{"missing name", func(c *service.Config) { c.Name = "" }},
	{"missing as", func(c *service.Config) { c.AS = 0 }},
	{"missing listen", func(c *service.Config) { c.Listen = "" }},
	{"bad prefix", func(c *service.Config) { c.Prefixes = map[string][]string{"1": {"nope"}} }},
	{"bad asn key", func(c *service.Config) { c.Prefixes = map[string][]string{"x": {"10.0.0.0/16"}} }},
	{"peer missing as", func(c *service.Config) { c.Peers[0].AS = 0 }},
	{"peer bad pub", func(c *service.Config) { c.Peers[0].Pub = "zz" }},
}

// withDefect returns a copy of good with one defect applied.
func withDefect(good service.Config, mutate func(*service.Config)) service.Config {
	c := good
	c.Peers = append([]service.PeerConfig(nil), good.Peers...)
	mutate(&c)
	return c
}

// TestConfigLoadAndValidate pins the JSON config surface: a good file
// loads, and each structural defect is rejected.
func TestConfigLoadAndValidate(t *testing.T) {
	good := testConfig(t)
	b, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "node.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := service.LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != good.Name || len(loaded.Peers) != 1 {
		t.Fatalf("loaded = %+v", loaded)
	}

	for _, tc := range configDefects {
		if err := withDefect(good, tc.mutate).Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}

// TestReloadRejectsIdentityChange pins the reload contract: peers are
// live-reloadable, the node's own identity is not.
func TestReloadRejectsIdentityChange(t *testing.T) {
	cfg := service.Config{
		Name: "ctrl.as1", AS: 1, Listen: "127.0.0.1:0",
		Prefixes: map[string][]string{"1": {"10.0.0.0/16"}},
	}
	n, err := service.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	changed := cfg
	changed.AS = 9
	changed.Prefixes = map[string][]string{"9": {"10.0.0.0/16"}}
	if err := n.Reload(changed); err == nil {
		t.Fatal("reload accepted an AS change")
	}
}
