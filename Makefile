# Standard targets for the DISCS reproduction.

GO ?= go

.PHONY: all build test test-race test-allocs test-fallback vet vet-obs fmt-check check node-smoke bench diff-paper fuzz report figures cost sim examples cover clean

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

# The tree is held to gofmt: any file it would rewrite is an error.
fmt-check:
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then \
		echo "files gofmt would rewrite:"; \
		echo "$$bad"; exit 1; \
	fi

# The pre-merge gate: formatting, static analysis, the full suite under the race
# detector (with shuffled test order to catch order-dependent tests),
# the allocation gates, the service-mode loopback smoke run, and one
# iteration of every §VI reproduction bench (bench_test.go), of the
# event-engine micro-benchmarks and of the smallest control-plane mesh
# (BenchmarkMeshFormation at 45 DAS, about a second), so they run rather
# than only compile. Performance is judged by `make bench`, not here.
check: fmt-check vet vet-obs test-race test-allocs test-fallback node-smoke
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/netsim
	$(GO) test -run '^$$' -bench 'MeshFormation/das=45$$' -benchtime 1x ./internal/core

# The allocation gates skip under -race (the race detector makes
# sync.Pool drop Puts), so they get one plain run of their own.
test-allocs:
	$(GO) test -run 'ZeroAlloc|Allocs|Budget' ./...

# The CMAC burst functions run an AES-NI lane kernel where the CPU has
# one and crypto/aes elsewhere. This runs the cmac and core tests once
# more with the crypto/aes path forced (without -race, so the
# allocation gates run too), and type-checks that path for an
# architecture without the kernel.
test-fallback:
	$(GO) test -count=1 -ldflags=-X=discs/internal/cmac.fallback=1 ./internal/cmac ./internal/core
	GOARCH=arm64 $(GO) vet ./internal/cmac ./internal/core

# Off-simulator smoke: boot a 3-node loopback fleet over TCP+TLS,
# deploy DP+CDP, push legit/spoofed/raw flows, and verify the victim's
# live /metrics shows them verified/blocked/dropped (self-checking —
# nonzero exit on any miss). The -burst phase then pushes packet
# trains through the batch entry points over the same TLS transport.
node-smoke:
	$(GO) run ./cmd/discs-node -loadgen -nodes 3 -flows 25 -burst 256 -packets 50000 -timeout 45s

# The repository benchmark: six workloads, the end-to-end metrics of
# BENCHMARK.json and the per-layer ledger (see bench/README.md).
bench:
	$(GO) run ./bench

# Paper-scale differentials: the 44,036-AS scenario at -workers 1 vs 4,
# and checkpoint→restore vs straight-through at 1 and 4 workers under
# fault injection, must produce identical final metrics snapshots.
# (The mid-size variants run unconditionally in make check.)
diff-paper:
	DISCS_PAPER_DIFF=1 $(GO) test -run 'TestPaper(Snapshot)?Differential' -count=1 -v -timeout 60m .

# Short fuzz pass over every parser (extend -fuzztime for deeper runs).
fuzz:
	$(GO) test ./internal/packet/ -fuzz FuzzParseIPv4 -fuzztime 15s
	$(GO) test ./internal/packet/ -fuzz FuzzParseIPv6 -fuzztime 15s
	$(GO) test ./internal/packet/ -fuzz FuzzScrubICMPv4 -fuzztime 15s
	$(GO) test ./internal/packet/ -fuzz FuzzFragmentReassemble -fuzztime 15s
	$(GO) test ./internal/core/ -fuzz FuzzDecodeControlMsg -fuzztime 15s
	$(GO) test ./internal/core/ -fuzz FuzzParseInvocation -fuzztime 15s
	$(GO) test ./internal/core/ -fuzz FuzzCtrlFrame -fuzztime 15s
	$(GO) test ./internal/core/ -fuzz FuzzFuncTableLookup -fuzztime 15s
	$(GO) test ./internal/flowexport/ -fuzz 'FuzzUnmarshal$$' -fuzztime 15s
	$(GO) test ./internal/flowexport/ -fuzz FuzzUnmarshalLabeled -fuzztime 15s
	$(GO) test ./internal/scenario/ -fuzz FuzzScenarioConfig -fuzztime 15s
	$(GO) test ./internal/securechan/ -fuzz FuzzOpen -fuzztime 15s
	$(GO) test ./internal/securechan/ -fuzz FuzzHandshakeFrames -fuzztime 15s
	$(GO) test ./internal/snapshot/ -fuzz FuzzRead -fuzztime 15s
	$(GO) test ./internal/snapshot/ -fuzz FuzzRestoreBGP -fuzztime 15s
	$(GO) test ./internal/transport/ -fuzz FuzzReadFrame -fuzztime 15s
	$(GO) test ./internal/transport/ -fuzz FuzzFrameRoundTrip -fuzztime 15s
	$(GO) test ./internal/service/ -fuzz FuzzConfig -fuzztime 15s
	$(GO) test ./internal/service/ -fuzz FuzzTrain -fuzztime 15s

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
