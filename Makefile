# Standard targets for the DISCS reproduction.

GO ?= go

.PHONY: all build test test-race vet vet-obs check node-smoke bench bench-dataplane bench-dataplane-gate bench-obs bench-topo bench-topo-report bench-paper bench-paper-report bench-snapshot bench-snapshot-report bench-service bench-service-report bench-scenario bench-scenario-report diff-paper fuzz report figures cost sim examples cover clean

all: build check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race -shuffle=on ./...

vet:
	$(GO) vet ./...

# Every stat counter must live in the obs registry: the old idiom of
# raw atomic uint64 counters outside internal/obs is a lint error.
# (atomic.Pointer/Bool and the router's rng/sampling ticks are fine —
# the rule targets the Add/Load/StoreUint64 counter style.)
vet-obs:
	@bad=$$(grep -rn --include='*.go' -E 'atomic\.(Add|Load|Store)Uint64\(' internal cmd examples 2>/dev/null | grep -v '^internal/obs/' || true); \
	if [ -n "$$bad" ]; then \
		echo "raw counter atomics outside internal/obs (use obs.Counter):"; \
		echo "$$bad"; exit 1; \
	fi

# The pre-merge gate: static analysis, the full suite under the race
# detector (with shuffled test order to catch order-dependent tests),
# the service-mode loopback smoke run, and the paper-scale topology and
# end-to-end budgets.
check: vet vet-obs test-race node-smoke bench-topo bench-paper bench-snapshot bench-dataplane-gate bench-service bench-scenario

# Off-simulator smoke: boot a 3-node loopback fleet over TCP+TLS,
# deploy DP+CDP, push legit/spoofed/raw flows, and verify the victim's
# live /metrics shows them verified/blocked/dropped (self-checking —
# nonzero exit on any miss). The -burst phase then pushes packet
# trains through the batch entry points over the same TLS transport.
node-smoke:
	$(GO) run ./cmd/discs-node -loadgen -nodes 3 -flows 25 -burst 256 -packets 50000 -timeout 45s

# Per-figure/table reproduction benches (bench_test.go at the root).
bench:
	$(GO) test -bench . -benchmem ./...

# Data-plane throughput report: serial vs parallel vs batch vs hostile
# many-flows Mpps into BENCH_dataplane.json. Fails if the idle path
# computes any CMAC or the allocations per stamped packet regress above
# BENCH_baseline.json.
bench-dataplane:
	DISCS_DATAPLANE_REPORT=1 $(GO) test -run 'TestDataPlane(Budget|Report)' -count=1 -v .

# Throughput floor gate: the batch and many-flows shapes must hold at
# least half of the committed BENCH_dataplane.json Mpps at 0 allocs/op.
bench-dataplane-gate:
	DISCS_DATAPLANE_GATE=1 $(GO) test -run 'TestDataPlaneGate' -count=1 -v .

# Service-plane throughput floor gate: a live 2-node loopback fleet's
# batch path (packet trains + inbound worker pool) must hold at least
# half the committed BENCH_service.json Mpps and at least half its
# committed batch-over-per-packet speedup (itself required ≥5x).
bench-service:
	DISCS_SERVICE_GATE=1 $(GO) test -run 'TestServiceGate' -count=1 -v .

# Regenerate BENCH_service.json (end-to-end per-packet vs batch Mpps).
bench-service-report:
	DISCS_SERVICE_REPORT=1 $(GO) test -run 'TestServiceReport' -count=1 -v .

# Observability overhead report: instrumented vs plain stamp+verify
# into BENCH_obs.json. Fails if instrumentation allocates or costs more
# than 5% ns/op.
bench-obs:
	DISCS_OBS_REPORT=1 $(GO) test -run 'TestObs(Budget|Report)' -count=1 -v .

# Paper-scale topology gate: generate + BGP network build + routing
# tree warm at 44,036 ASes must stay within 10% of the committed
# BENCH_topo.json, and a warm NextHop must stay allocation-free.
bench-topo:
	DISCS_TOPO_BENCH=1 $(GO) test -run 'TestTopoBudget' -count=1 -v .

# Regenerate BENCH_topo.json (best of two full runs).
bench-topo-report:
	DISCS_TOPO_REPORT=1 $(GO) test -run 'TestTopoReport' -count=1 -v .

# Paper-scale end-to-end gate: the full discs-sim -paper scenario at
# -workers 1 must stay within 10% of the committed BENCH_paper.json.
bench-paper:
	DISCS_PAPER_BENCH=1 $(GO) test -run 'TestPaperBudget' -count=1 -v -timeout 30m .

# Regenerate BENCH_paper.json with the 1/2/4/8-worker scaling sweep.
bench-paper-report:
	DISCS_PAPER_REPORT=1 $(GO) test -run 'TestPaperReport' -count=1 -v -timeout 60m .

# Paper-scale snapshot gate: checkpoint/restore wall-clock and image
# size within 10% of the committed BENCH_snapshot.json, the restored
# run bit-identical to straight-through at 1 and 4 workers under fault
# injection, and a 3-cell warm-start sweep ≥3× faster than 3 cold runs.
bench-snapshot:
	DISCS_SNAPSHOT_BENCH=1 $(GO) test -run 'TestSnapshotBudget' -count=1 -v -timeout 30m .

# Regenerate BENCH_snapshot.json.
bench-snapshot-report:
	DISCS_SNAPSHOT_REPORT=1 $(GO) test -run 'TestSnapshotReport' -count=1 -v -timeout 60m .

# Scenario-engine gate: a mid-size declarative campaign (pulse-wave
# onset, invocation, adaptive rotation, sustain) must finish within
# budget of the committed BENCH_scenario.json with the exact committed
# packet volume and dataset shape (the engine is deterministic).
bench-scenario:
	DISCS_SCENARIO_BENCH=1 $(GO) test -run 'TestScenarioBudget' -count=1 -v .

# Regenerate BENCH_scenario.json.
bench-scenario-report:
	DISCS_SCENARIO_REPORT=1 $(GO) test -run 'TestScenarioReport' -count=1 -v .

# Paper-scale differential: the 44,036-AS scenario at -workers 1 vs 4
# must produce byte-identical final metrics snapshots. (The mid-size
# fault-injected differential runs unconditionally in make check.)
diff-paper:
	DISCS_PAPER_DIFF=1 $(GO) test -run 'TestPaperDifferential' -count=1 -v -timeout 60m .

# Short fuzz pass over every parser (extend -fuzztime for deeper runs).
fuzz:
	$(GO) test ./internal/packet/ -fuzz FuzzParseIPv4 -fuzztime 15s
	$(GO) test ./internal/packet/ -fuzz FuzzParseIPv6 -fuzztime 15s
	$(GO) test ./internal/packet/ -fuzz FuzzScrubICMPv4 -fuzztime 15s
	$(GO) test ./internal/packet/ -fuzz FuzzFragmentReassemble -fuzztime 15s
	$(GO) test ./internal/core/ -fuzz FuzzDecodeControlMsg -fuzztime 15s
	$(GO) test ./internal/core/ -fuzz FuzzParseInvocation -fuzztime 15s
	$(GO) test ./internal/core/ -fuzz FuzzCtrlFrame -fuzztime 15s
	$(GO) test ./internal/flowexport/ -fuzz 'FuzzUnmarshal$$' -fuzztime 15s
	$(GO) test ./internal/flowexport/ -fuzz FuzzUnmarshalLabeled -fuzztime 15s
	$(GO) test ./internal/scenario/ -fuzz FuzzScenarioConfig -fuzztime 15s
	$(GO) test ./internal/securechan/ -fuzz FuzzOpen -fuzztime 15s
	$(GO) test ./internal/securechan/ -fuzz FuzzHandshakeFrames -fuzztime 15s
	$(GO) test ./internal/snapshot/ -fuzz FuzzRead -fuzztime 15s

# Paper-vs-measured reproduction artifacts.
report:
	$(GO) run ./cmd/discs-report

figures:
	$(GO) run ./cmd/discs-eval -fig all

cost:
	$(GO) run ./cmd/discs-cost

sim:
	$(GO) run ./cmd/discs-sim

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/reflection
	$(GO) run ./examples/alarm
	$(GO) run ./examples/incremental
	$(GO) run ./examples/priority
	$(GO) run ./examples/campaign
	$(GO) run ./examples/observability
	$(GO) run ./examples/scenario

cover:
	$(GO) test -cover ./internal/...

clean:
	$(GO) clean ./...
