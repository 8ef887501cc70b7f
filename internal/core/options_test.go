package core

import (
	"errors"
	"testing"
	"time"

	"discs/internal/netsim"
	"discs/internal/obs"
	"discs/internal/topology"
	"discs/internal/transport"
)

// fakeSender/fakeRuntime stand in for a real transport in service-mode
// construction tests.
type fakeSender struct{ sent []transport.Frame }

func (f *fakeSender) Send(peer string, fr transport.Frame) bool {
	f.sent = append(f.sent, fr)
	return true
}

type fakeRuntime struct{ now time.Duration }

func (r *fakeRuntime) Now() time.Duration                         { return r.now }
func (r *fakeRuntime) After(d time.Duration, fn func())           {}
func (r *fakeRuntime) AfterBackground(d time.Duration, fn func()) {}

// wantOptErr asserts err unwraps to an *optionError naming the given
// struct and field.
func wantOptErr(t *testing.T, err error, strct, field string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want *optionError for %s.%s, got nil", strct, field)
	}
	var oe *optionError
	if !errors.As(err, &oe) {
		t.Fatalf("want *optionError, got %T: %v", err, err)
	}
	if oe.Struct != strct || oe.Field != field {
		t.Fatalf("optionError = %s.%s (%q), want %s.%s", oe.Struct, oe.Field, oe.Reason, strct, field)
	}
}

func TestControllerOptionsValidation(t *testing.T) {
	sim := netsim.New()
	node, err := sim.AddNode("ctrl.x")
	if err != nil {
		t.Fatal(err)
	}
	dir := NewDirectory()
	topo := topology.New()
	base := ControllerOptions{
		AS: 1, Name: "ctrl.x", Sim: sim, Node: node, Dir: dir, Topo: topo,
		Config: DefaultConfig(), Seed: 1,
	}

	cases := []struct {
		name         string
		mutate       func(*ControllerOptions)
		strct, field string
	}{
		{"missing name", func(o *ControllerOptions) { o.Name = "" }, "ControllerOptions", "Name"},
		{"missing dir", func(o *ControllerOptions) { o.Dir = nil }, "ControllerOptions", "Dir"},
		{"missing topo", func(o *ControllerOptions) { o.Topo = nil }, "ControllerOptions", "Topo"},
		{"missing sim", func(o *ControllerOptions) { o.Sim = nil }, "ControllerOptions", "Sim"},
		{"missing node", func(o *ControllerOptions) { o.Node = nil }, "ControllerOptions", "Node"},
		{"runtime without conn", func(o *ControllerOptions) { o.Runtime = &fakeRuntime{} }, "ControllerOptions", "Runtime"},
		{"conn without runtime", func(o *ControllerOptions) {
			o.Sim, o.Node = nil, nil
			o.Conn = &fakeSender{}
		}, "ControllerOptions", "Runtime"},
		{"service mode without registry", func(o *ControllerOptions) {
			o.Sim, o.Node = nil, nil
			o.Conn, o.Runtime = &fakeSender{}, &fakeRuntime{}
		}, "ControllerOptions", "Registry"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := base
			c.mutate(&o)
			_, err := NewControllerWithOptions(o)
			wantOptErr(t, err, c.strct, c.field)
		})
	}

	if _, err := NewControllerWithOptions(base); err != nil {
		t.Fatalf("valid sim-mode options rejected: %v", err)
	}
}

// TestControllerServiceMode pins the service-mode construction path: a
// controller bound to a FrameSender + Runtime instead of a simulator
// builds, registers a node-less directory entry, and pushes its frames
// through the seam.
func TestControllerServiceMode(t *testing.T) {
	conn := &fakeSender{}
	rt := &fakeRuntime{}
	dir := NewDirectory()
	c, err := NewControllerWithOptions(ControllerOptions{
		AS: 7, Name: "ctrl.as7", Conn: conn, Runtime: rt,
		Dir: dir, Topo: topology.New(), Config: DefaultConfig(), Seed: 7,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ent := dir.Lookup("ctrl.as7")
	if ent == nil || ent.node != nil {
		t.Fatalf("directory entry = %+v, want registered with nil node", ent)
	}
	// Seeing an Ad schedules a peering request through rt.After; with
	// the no-op fake runtime nothing must reach conn yet.
	if len(conn.sent) != 0 {
		t.Fatalf("unexpected frames sent: %d", len(conn.sent))
	}
	// Crash/Restart must not dereference the absent netsim node.
	c.crash()
	c.restart()
}

func TestRouterOptionsValidation(t *testing.T) {
	tab := NewTables(1, testPfx2AS(t))
	if _, err := NewBorderRouterWithOptions(RouterOptions{}); err == nil {
		t.Fatal("nil Tables accepted")
	} else {
		wantOptErr(t, err, "RouterOptions", "Tables")
	}
	_, err := NewBorderRouterWithOptions(RouterOptions{Tables: tab, ExternalMTU: -1})
	wantOptErr(t, err, "RouterOptions", "ExternalMTU")
	_, err = NewBorderRouterWithOptions(RouterOptions{Tables: tab, TraceSampleEvery: -8})
	wantOptErr(t, err, "RouterOptions", "TraceSampleEvery")
	if _, err := NewBorderRouterWithOptions(RouterOptions{Tables: tab}); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

func TestSystemOptionsValidation(t *testing.T) {
	_, err := NewSystemWithOptions(SystemOptions{})
	wantOptErr(t, err, "SystemOptions", "Net")
}

// TestOptionErrorMessage pins the rendered form operators see in logs.
func TestOptionErrorMessage(t *testing.T) {
	err := optErr("RouterOptions", "Tables", "required")
	if got, want := err.Error(), "core: RouterOptions.Tables: required"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}
