# Standard targets for the DISCS reproduction.

GO ?= go

.PHONY: all build test test-race test-allocs test-fallback vet vet-obs fmt-check check api node-smoke bench diff-paper fuzz report figures cost sim examples cover clean

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
# detector (with shuffled test order to catch order-dependent tests;
# the §VI checkpoints are its TestPaperCheckpoints), the allocation
# gates, the service-mode loopback smoke run, and one iteration of the
# event-engine micro-benchmarks, of the smallest control-plane mesh
# (BenchmarkMeshFormation at 45 DAS, about a second) and of the
# per-packet simulator path (the serial router round trip, SendV4, a
# scenario engine's campaign pulse and the IPv4 LPM lookup) and of the
# 44,036-AS world set-up, so they run rather than only compile.
# Performance is judged by `make bench`, not here.
check: fmt-check vet vet-obs test-race test-allocs test-fallback node-smoke
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/netsim
	$(GO) test -run '^$$' -bench 'MeshFormation/das=45$$|SerialRoundTrip|SendV4' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench 'CampaignPulse' -benchtime 1x ./internal/scenario
	$(GO) test -run '^$$' -bench 'LookupV4' -benchtime 1x ./internal/lpm
	$(GO) test -run '^$$' -bench 'PaperWorldSetup' -benchtime 1x ./internal/snapshot

# The allocation gates skip under -race (the race detector makes
# sync.Pool drop Puts), so they get one plain run of their own.
test-allocs:
	$(GO) test -run 'ZeroAlloc|Allocs|Budget' ./...

# The CMAC burst functions run an AES-NI lane kernel where the CPU has
# one and crypto/aes elsewhere; securechan's X25519 batches run a 4-lane
# AVX-512 IFMA kernel where the CPU has one, a BMI2/ADX kernel lane by
# lane where it has only that, and crypto/ecdh elsewhere. This runs the
# cmac, securechan and core tests once more with both stdlib paths forced
# and the securechan and core tests once with only the 4-lane kernel
# turned off (without -race, so the allocation gates run too), and
# type-checks them for an architecture without the kernels.
test-fallback:
	$(GO) test -count=1 -ldflags='-X=discs/internal/cmac.fallback=1 -X=discs/internal/securechan.fallback=1' ./internal/cmac ./internal/securechan ./internal/core
	$(GO) test -count=1 -ldflags='-X=discs/internal/securechan.fallback=scalar' ./internal/securechan ./internal/core
	GOARCH=arm64 $(GO) vet ./internal/cmac ./internal/securechan ./internal/core

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

# Regenerate testdata/api.txt, the exported surface of internal/ that
# TestAPISurface pins, after a deliberate API change; commit the diff.
api:
	DISCS_UPDATE_API=1 $(GO) test -count=1 -run TestAPISurface .

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
	$(GO) test ./internal/lpm/ -fuzz FuzzLPM -fuzztime 15s
	$(GO) test ./internal/bgp/ -fuzz FuzzDecodeDISCSAd -fuzztime 15s
	$(GO) test ./internal/core/ -fuzz FuzzDecodeControlMsg -fuzztime 15s
	$(GO) test ./internal/core/ -fuzz FuzzParseInvocation -fuzztime 15s
	$(GO) test ./internal/core/ -fuzz FuzzCtrlFrame -fuzztime 15s
	$(GO) test ./internal/core/ -fuzz FuzzFuncTableLookup -fuzztime 15s
	$(GO) test ./internal/flowexport/ -fuzz 'FuzzUnmarshal$$' -fuzztime 15s
	$(GO) test ./internal/flowexport/ -fuzz FuzzUnmarshalLabeled -fuzztime 15s
	$(GO) test ./internal/scenario/ -fuzz FuzzScenarioConfig -fuzztime 15s
	$(GO) test ./internal/securechan/ -fuzz FuzzOpen -fuzztime 15s
	$(GO) test ./internal/securechan/ -fuzz FuzzHandshakeFrames -fuzztime 15s
	$(GO) test ./internal/securechan/ -fuzz 'FuzzX25519$$' -fuzztime 15s
	$(GO) test ./internal/securechan/ -fuzz FuzzX25519Batch -fuzztime 15s
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
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d; done

cover:
	$(GO) test -cover ./internal/...

clean:
	$(GO) clean ./...
