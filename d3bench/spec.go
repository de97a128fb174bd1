package main

import "strings"

// metricSpec describes one reported metric. BENCHMARK.json carries name,
// unit, better (and bound for end-to-end metrics); layer and moves are the
// benchmark's own record of which end-to-end metric, on which workload, a
// per-layer metric should move. `d3bench -spec` prints the whole table.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Layer  string  `json:"layer,omitempty"`
	Moves  string  `json:"moves,omitempty"`
}

// workloadWhy is the reason each workload exists.
var workloadWhy = map[string]string{
	"pylot-steady":  "one worker at 200 Hz open loop: threads park between frames, so wake-up, dispatch and deadline arm/disarm sit on every frame's path; no comm; drain_fps is the offered rate",
	"pylot-burst":   "4000 frames due at once on one worker: deep EDF run queues and stealing, most deadlines fire so the DEH path runs; threads never park",
	"pylot-cluster": "three workers on two hosts at 200 Hz: every frame crosses one pairwise-shm hop and one TCP hop with heartbeats running; drain_fps is the offered rate",
	"sensor-fanout": "1 MB frames at 60 Hz to four consumers over two hosts via broadcast rings and the elected relay; the bulk-bytes use of comm; drain_fps is the offered rate",
}

// endToEnd are the metrics a user of the system sees, measured untraced.
// Bounds are the share of the parent's median a metric may worsen by.
// Time metrics get the widest bound allowed: on a 2-vCPU guest the
// host's speed drifts by 10-20 % over tens of minutes (hypervisor steal,
// co-tenants on the shared cores and memory), which moves wall-clock and
// CPU time alike. A run reports the better quartile over its blocks
// (betterQuartile), which takes out interference that comes and goes
// within a run, not drift between runs. On the open-loop workloads
// drain_fps is the offered rate, since a block drains when its last
// frame's output comes; only pylot-burst's drain_fps measures the
// runtime. The latency tail (p90, p99) is reported ungated under
// harness.*: frames fall into a fast mode and a stalled mode, and p90
// jumps between the two as the stalled share crosses a tenth.
var endToEnd = []metricSpec{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "drain_fps", Unit: "frames/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_frame", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_peak_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// pylotOps and fanoutOps are the operators whose callbacks are timed.
var (
	pylotOps   = []string{"perception", "prediction", "planning", "control", "pDP"}
	fanoutOps  = []string{"c0", "c1", "c2", "c3", "fusion"}
	hopNames   = []string{"camera.shm", "commands.tcp", "deadlines.shm", "lidar.ring", "lidar.relay", "lidar.republish", "result.shm", "result.tcp"}
	fanoutPath = []string{"local", "ring", "relay", "republish"}
)

// perLayerSpec builds the per-layer table, in BENCHMARK.json order.
func perLayerSpec() []metricSpec {
	var s []metricSpec
	add := func(layer, name, unit, better, moves string) {
		s = append(s, metricSpec{Name: name, Unit: unit, Better: better, Layer: layer, Moves: moves})
	}
	add("lattice", "lattice.queue_wait_p50_us", "us", "lower", "latency_p50_ms on pylot-steady; drain_fps on pylot-burst")
	add("lattice", "lattice.queue_wait_p90_us", "us", "lower", "harness.latency_p90_ms on pylot-steady; drain_fps on pylot-burst")
	add("lattice", "lattice.ready_depth_p90", "count", "lower", "drain_fps on pylot-burst (about 0 on pylot-steady)")
	add("lattice", "lattice.urgency_misses_per_frame", "count", "lower", "deadline.miss_frac on pylot-burst")
	for _, op := range append(append([]string(nil), pylotOps...), fanoutOps...) {
		add("worker", "worker.run_us_p50."+op, "us", "lower", "latency_p50_ms everywhere; emulated plus real AV compute, so a runtime-only change should leave it flat")
	}
	add("worker", "worker.callbacks_per_frame", "count", "lower", "cpu_ms_per_frame on all workloads")
	add("stream", "stream.delivered_per_frame", "count", "lower", "cpu_ms_per_frame on all workloads")
	add("stream", "stream.watermark_batches_per_frame", "count", "lower", "cpu_ms_per_frame on all workloads")
	add("stream", "stream.stale_drops", "count", "lower", "cpu_ms_per_frame; must be 0 outside pylot-burst")
	add("deadline", "deadline.miss_frac", "ratio", "lower", "drain_fps and latency_p50_ms on pylot-burst; 0 at the open-loop rates")
	add("deadline", "deadline.misses_per_frame", "count", "lower", "drain_fps on pylot-burst")
	add("deadline", "deadline.handler_runs_per_frame", "count", "lower", "drain_fps on pylot-burst")
	add("deadline", "deadline.handler_delay_p50_us", "us", "lower", "drain_fps on pylot-burst")
	add("deadline", "deadline.handler_delay_p90_us", "us", "lower", "drain_fps on pylot-burst")
	for _, enc := range []string{"typed", "raw", "gob"} {
		add("comm", "comm.frames_per_frame."+enc, "count", "lower", "cpu_ms_per_frame on pylot-cluster and sensor-fanout; gob must be 0")
	}
	add("comm", "comm.wire_bytes_per_frame", "B", "lower", "cpu_ms_per_frame and latency_p50_ms on sensor-fanout")
	add("comm", "comm.producer_wire_bytes_per_frame", "B", "lower", "cpu_ms_per_frame and latency_p50_ms on sensor-fanout")
	add("comm", "comm.frames_per_flush", "count", "higher", "cpu_ms_per_frame and harness.latency_p90_ms on pylot-cluster")
	add("comm", "comm.late_flushes_per_frame", "count", "lower", "harness.latency_p90_ms on pylot-cluster")
	add("comm", "comm.relay_envelopes_per_frame", "count", "lower", "producer bytes and harness.latency_p90_ms on sensor-fanout")
	add("comm", "comm.relay_republished_per_frame", "count", "lower", "producer bytes and harness.latency_p90_ms on sensor-fanout")
	for _, h := range hopNames {
		moves := "latency_p50_ms and harness.latency_p90_ms on pylot-cluster"
		if s, _, _ := strings.Cut(h, "."); s == "lidar" || s == "result" {
			moves = "latency_p50_ms and harness.latency_p90_ms on sensor-fanout"
		}
		if h == "deadlines.shm" {
			moves = "off the critical path on pylot-cluster: should move no end-to-end metric"
		}
		add("comm", "comm.hop_us_p50."+h, "us", "lower", moves)
		add("comm", "comm.hop_us_p90."+h, "us", "lower", moves)
	}
	add("cluster", "cluster.join_s", "s", "lower", "setup_s on pylot-cluster and sensor-fanout")
	add("cluster", "cluster.start_s", "s", "lower", "setup_s on pylot-cluster and sensor-fanout")
	add("cluster", "cluster.heartbeat_bytes", "B", "lower", "cpu_ms_per_frame on pylot-cluster")
	add("cluster", "cluster.forwarded_per_frame", "count", "lower", "cpu_ms_per_frame on pylot-cluster")
	add("cluster", "cluster.leader_events", "count", "lower", "must stay 0; a spurious failover invalidates the run")
	for _, st := range pylotStages {
		add("pylot", "pylot.stage_us_p50."+st.op, "us", "lower", "latency_p50_ms on the pylot workloads")
		add("pylot", "pylot.stage_us_p90."+st.op, "us", "lower", "harness.latency_p90_ms on the pylot workloads")
	}
	add("pylot", "fanout.fusion_wait_us_p50", "us", "lower", "harness.latency_p90_ms on sensor-fanout")
	for _, p := range fanoutPath {
		add("pylot", "fanout.last_path_share."+p, "ratio", "lower", "harness.latency_p90_ms on sensor-fanout")
	}
	add("runtime", "runtime.allocs_per_frame", "count", "lower", "cpu_ms_per_frame and harness.latency_p90_ms on all workloads")
	add("runtime", "runtime.alloc_bytes_per_frame", "B", "lower", "cpu_ms_per_frame and heap_peak_mb on all workloads")
	add("runtime", "runtime.gc_cycles_per_kframe", "count", "lower", "cpu_ms_per_frame and harness.latency_p90_ms on all workloads")
	add("runtime", "runtime.goroutines_after_teardown", "count", "lower", "none; must be 0 (a leak)")
	add("harness", "harness.gen_late_p99_ms", "ms", "lower", "validity of every number: the generator's own lateness")
	add("harness", "harness.gen_late_max_ms", "ms", "lower", "validity of every number: the generator's own lateness")
	add("harness", "harness.latency_p90_ms", "ms", "lower", "ungated tail: median over blocks of each block's p90")
	add("harness", "harness.latency_p99_ms", "ms", "lower", "ungated tail (highest percentile with ten samples beyond it, up to p99)")
	add("harness", "harness.trace_overhead_pct", "%", "lower", "validity of the per-layer numbers: traced minus untraced latency_p50_ms")
	add("harness", "harness.unattributed_us_p50", "us", "lower", "validity of the per-layer numbers: time no span explains")
	return s
}

// boundOf returns an end-to-end metric's bound.
func boundOf(name string) float64 {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}
