package scenario

import (
	"testing"
	"time"
)

// TestPulseAllocs: a warmed pulse phase allocates a constant, however
// many packets its flows send. Generation fills the engine's packet
// store, the train is laid out in the store's trainer, and SendV4 and
// the dataset's per-packet fold allocate nothing, so what is left is
// per phase and per flow (the flow set, the dataset's records), never
// per packet.
func TestPulseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var perPhase [2]float64
	for i, n := range []int{8, 2048} {
		sys, _ := world(t, 2, 3, 4, 5)
		spec, err := New("allocs", 7).victim(3).
			phase(Phase{Name: "train", Kind: PhasePulse, Flows: 16, PerFlow: n,
				Pulses: 4, SubWaves: 2, Width: Duration(time.Millisecond), Gap: Duration(time.Millisecond)}).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(Options{Spec: spec, Sys: sys})
		if err != nil {
			t.Fatal(err)
		}
		ph := &e.spec.Phases[0]
		var pr PhaseResult
		if err := e.runAttackPhase(ph, &pr); err != nil {
			t.Fatal(err)
		}
		// The run's dataset grows by the phase's records every time;
		// trimming it keeps its appends the same from run to run. Twenty
		// runs average away the rare allocation of a control frame
		// received while the clock advances between bursts.
		perPhase[i] = testing.AllocsPerRun(20, func() {
			e.dataset = e.dataset[:0]
			if err := e.runAttackPhase(ph, &pr); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("allocs per phase: %v", perPhase)
	if perPhase[0] != perPhase[1] {
		t.Errorf("a warmed pulse phase allocates %.0f times at 8 packets per flow and %.0f at 2048, want one constant", perPhase[0], perPhase[1])
	}
}

// BenchmarkCampaignPulse runs a warmed pulse phase of the sim-paper
// campaign's shape — d-DDoS flows of 12 packets a pulse, six pulses —
// through generation, the train, SendV4 and the dataset fold, on the
// test world against an invoked victim, and reports packets per second.
func BenchmarkCampaignPulse(b *testing.B) {
	sys, _ := world(b, 2, 3, 4, 5)
	spec, err := New("bench", 1).victim(3).
		Invoke("defend").
		Pulse("train", 64, 12, 6, time.Millisecond).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(Options{Spec: spec, Sys: sys})
	if err != nil {
		b.Fatal(err)
	}
	var pr PhaseResult
	if err := e.runInvoke(&e.spec.Phases[0], &pr); err != nil {
		b.Fatal(err)
	}
	ph := &e.spec.Phases[1]
	if err := e.runAttackPhase(ph, &pr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.dataset = e.dataset[:0]
		if err := e.runAttackPhase(ph, &pr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(ph.Flows*ph.PerFlow*ph.Pulses)/b.Elapsed().Seconds()/1e6, "Mpps")
}
