package service

import (
	"encoding/json"
	"net"
	"net/http"
	"time"

	"discs/internal/topology"
)

// Health is the /healthz report: overall status plus the controller's
// view of every configured peer.
type Health struct {
	// Status is "ok" when every configured peer is established,
	// "degraded" otherwise (still peering, rejected, or declared dead).
	Status string `json:"status"`
	Name   string `json:"name"`
	AS     uint32 `json:"as"`
	// UptimeSeconds is wall time since the node was constructed.
	UptimeSeconds float64           `json:"uptime_seconds"`
	Peers         map[string]string `json:"peers"`
}

// OK reports whether the node considers itself fully healthy.
func (h Health) OK() bool { return h.Status == "ok" }

// health computes the node's liveness report from the controller's
// heartbeat/dead-peer state, serialized with the event loop.
func (n *Node) health() Health {
	h := Health{
		Status:        "ok",
		Name:          n.cfg.Name,
		AS:            n.cfg.AS,
		UptimeSeconds: time.Since(n.start).Seconds(),
		Peers:         make(map[string]string, len(n.cfg.Peers)),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.cfg.Peers {
		st, ok := n.ctrl.PeerStatusOf(topology.ASN(p.AS))
		if !ok {
			h.Peers[p.Name] = "unknown"
			h.Status = "degraded"
			continue
		}
		h.Peers[p.Name] = st.String()
		if !n.ctrl.KeysReadyWith(topology.ASN(p.AS)) {
			h.Status = "degraded"
		}
	}
	return h
}

// adminServer is the node's HTTP sidecar: Prometheus /metrics and
// JSON /healthz.
type adminServer struct {
	ln  net.Listener
	srv *http.Server
}

func newAdminServer(addr string, n *Node) (*adminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap := n.Stats()
		snap.WritePrometheus(w, "discs")
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := n.health()
		w.Header().Set("Content-Type", "application/json")
		if !h.OK() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(h)
	})
	return &adminServer{
		ln:  ln,
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}, nil
}

func (a *adminServer) serve() {
	go a.srv.Serve(a.ln)
}

func (a *adminServer) addr() string { return a.ln.Addr().String() }

func (a *adminServer) close() { a.srv.Close() }
