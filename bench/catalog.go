package main

// The catalog is the one place metric and workload names live: the
// workloads write values under these names, the driver line and the
// human report read them back, -manifest turns it into BENCHMARK.json,
// and a unit test pins the committed BENCHMARK.json to it.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the reference median by which the metric
	// may worsen. On an end-to-end metric it is BENCHMARK.json's bound
	// and holds on every workload; on a headline per-layer metric it is
	// the bound issue 11 wished for, which -repeat-check prints the
	// metric against without gating on it; 0 means plain diagnostic.
	Bound float64
	E2E   bool
}

var catalog = []metricDef{
	// End to end: defined, non-zero and gated on all six workloads.
	{"setup_s", "s", "lower", 0.25, true},
	{"pkt_mpps", "Mpps", "higher", 0.25, true},
	{"total_s", "s", "lower", 0.25, true},

	// Headlines: user-visible, but the driver wants every end-to-end
	// metric from every workload and inside its bound on every one.
	// cpu_us_per_pkt exists everywhere but swings up to 20% between two
	// run sets of the fleet workloads on the defining box; the others
	// exist on some workloads only. They sit in the per-layer list, and
	// -repeat-check reports them beside the bound the issue gave them.
	{"cpu_us_per_pkt", "us", "lower", 0.15, false},
	{"train_latency_p50_ms", "ms", "lower", 0.10, false},
	{"mitigation_p50_ms", "ms", "lower", 0.15, false},
	{"converge_s", "s", "lower", 0.10, false},
	{"deploy_s", "s", "lower", 0.10, false},
	{"scenario_kpps", "kpps", "higher", 0.10, false},
	{"checkpoint_s", "s", "lower", 0.10, false},
	{"restore_s", "s", "lower", 0.10, false},

	{"trace.overhead_ratio", "ratio", "lower", 0, false},

	{"packet.parse_ns", "ns", "lower", 0, false},
	{"packet.marshal_ns", "ns", "lower", 0, false},
	{"packet.allocs_per_pkt", "count", "lower", 0, false},

	{"lpm.lookup_ns", "ns", "lower", 0, false},

	{"cmac.mac_ns", "ns", "lower", 0, false},
	{"cmac.burst_mac_ns", "ns", "lower", 0, false},
	{"core.macs_per_pkt", "count", "lower", 0, false},

	{"core.outbound_ns", "ns", "lower", 0, false},
	{"core.inbound_ns", "ns", "lower", 0, false},
	{"core.self_ns", "ns", "lower", 0, false},
	{"core.allocs_per_pkt", "count", "lower", 0, false},
	{"core.out_stamped", "count", "higher", 0, false},
	{"core.out_dropped", "count", "higher", 0, false},
	{"core.in_verified", "count", "higher", 0, false},
	{"core.in_verify_fail", "count", "higher", 0, false},
	{"router.sum_ratio", "ratio", "higher", 0, false},

	{"transport.codec_ns", "ns", "lower", 0, false},
	{"transport.pair_tls_mpps", "Mpps", "higher", 0, false},
	{"transport.pair_plain_mpps", "Mpps", "higher", 0, false},
	{"transport.frames_sent", "count", "lower", 0, false},
	{"transport.frames_dropped", "count", "lower", 0, false},
	{"transport.bytes_sent", "count", "lower", 0, false},
	{"transport.redials", "count", "lower", 0, false},
	{"transport.queue_depth_max", "count", "lower", 0, false},
	{"transport.pkts_per_frame", "count", "higher", 0, false},

	{"service.send_ns", "ns", "lower", 0, false},
	{"service.send_perpkt_ns", "ns", "lower", 0, false},
	{"service.transit_p50_us", "us", "lower", 0, false},
	{"service.send_refused", "count", "lower", 0, false},
	{"service.rx_overflow", "count", "lower", 0, false},
	{"service.rx_malformed", "count", "lower", 0, false},
	{"service.rx_dropped", "count", "lower", 0, false},
	{"service.invoke_call_us", "us", "lower", 0, false},
	{"service.outside_router_share", "ratio", "lower", 0, false},

	{"fleet.train_latency_p99_ms", "ms", "lower", 0, false},
	{"fleet.train_latency_max_ms", "ms", "lower", 0, false},
	{"fleet.mitigation_p90_ms", "ms", "lower", 0, false},
	{"fleet.gen_late_p99_ms", "ms", "lower", 0, false},
	{"fleet.gen_late_ticks", "count", "lower", 0, false},
	{"proc.cpu_cores_busy", "ratio", "lower", 0, false},
	{"proc.peak_rss_mb", "MB", "lower", 0, false},
	{"proc.gc_pause_ms", "ms", "lower", 0, false},

	{"topology.generate_s", "s", "lower", 0, false},
	{"bgp.build_s", "s", "lower", 0, false},
	{"topology.warm_s", "s", "lower", 0, false},

	{"parsim.epochs", "count", "lower", 0, false},
	{"parsim.events", "count", "lower", 0, false},
	{"parsim.stall_s", "s", "lower", 0, false},
	{"parsim.events_per_s", "1/s", "higher", 0, false},
	{"parsim.worker_imbalance", "ratio", "lower", 0, false},

	{"core.deploy_calls_s", "s", "lower", 0, false},
	{"core.settle_s", "s", "lower", 0, false},
	{"core.ctrl_msgs", "count", "lower", 0, false},
	{"core.ctrl_retries", "count", "lower", 0, false},
	{"securechan.bytes_sealed", "count", "lower", 0, false},
	{"core.ctrl_us_per_msg", "us", "lower", 0, false},

	{"scenario.run_s", "s", "lower", 0, false},
	{"scenario.packets", "count", "higher", 0, false},
	{"scenario.onset_s", "s", "lower", 0, false},
	{"scenario.invoke_s", "s", "lower", 0, false},
	{"scenario.rotate_s", "s", "lower", 0, false},
	{"scenario.sustain_s", "s", "lower", 0, false},
	{"scenario.ttm_sim_ms", "ms", "lower", 0, false},

	{"snapshot.write_s", "s", "lower", 0, false},
	{"snapshot.read_s", "s", "lower", 0, false},
	{"snapshot.restore_s", "s", "lower", 0, false},
	{"snapshot.image_mb", "MB", "lower", 0, false},
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range catalog {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

type workloadDef struct {
	Name string
	Why  string // one line, <= 200 characters: goes into BENCHMARK.json
	Run  func(runConfig) (*result, error)
}

var workloads = []workloadDef{
	{"router-fastpath",
		"64 flows, one victim, one key, all legit through parse/stamp/marshal/parse/verify on one core: memos and the CMAC block cache always hit, so CMAC and the codec dominate.",
		runRouterFastpath},
	{"router-hostile",
		"16M-address sources over 256 /16s, 16 victims and keys, 25% IPv6, spoofed/injected/unprotected mix: every packet pays LPM, table walk and key switch; caches must miss.",
		runRouterHostile},
	{"fleet-trains",
		"Closed loop of 256-packet trains through a live 2-node TLS loopback fleet: transport and service do most of the work; the zero-loss capacity figure.",
		runFleetTrains},
	{"fleet-attack-mix",
		"Open loop at a fixed offered rate through a 3-node TLS fleet: trains beside per-packet frames while the victim invokes every 20 ms, so control frames queue behind data.",
		runFleetAttackMix},
	{"sim-paper",
		"The researcher's run: 44,036 ASes, 10 DAS, converge, deploy, pulse-wave campaign, checkpoint, restore, same campaign again; event-queue and epoch bound.",
		runSimPaper},
	{"sim-ctrl-mesh",
		"300 ASes with 180 DAS: 16,110 peerings and ~550k control messages, then a four-function invocation at 179 peers; controller and securechan bound, BGP small.",
		runSimCtrlMesh},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
