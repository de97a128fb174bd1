package main

import "sort"

// perLayer computes the per-layer metrics of a traced run. Counters,
// runtime deltas and generator figures come from the untraced window u;
// span- and tap-derived figures from the traced window t. Metrics a
// workload has no layer for (comm on one worker, pylot stages on the
// fanout) read 0.
func perLayer(uin *instance, u *window, tin *instance, t *window, leftover int, untracedP50, untracedP90 float64) map[string]float64 {
	m := map[string]float64{}
	n := float64(u.frames())
	per := func(a, b uint64) float64 { return float64(b-a) / n }
	c0, c1 := u.c0, u.c1

	// lattice
	// Run time is summed per operator and frame (data plus watermark
	// callbacks), then the median is taken over frames.
	var waits []float64
	type opFrame struct {
		op string
		l  uint64
	}
	perFrame := map[opFrame]float64{}
	var callbacks int
	for _, s := range t.callbackSpans {
		cr, st, en := s.created.Load(), s.start.Load(), s.end.Load()
		if cr < t.startNs || st == 0 || en == 0 {
			continue
		}
		callbacks++
		waits = append(waits, float64(st-cr)/1e3)
		if l := s.frame.Load(); l >= t.first && l <= t.last {
			perFrame[opFrame{s.op, l}] += float64(en-st) / 1e3
		}
	}
	runs := map[string][]float64{}
	for k, v := range perFrame {
		runs[k.op] = append(runs[k.op], v)
	}
	waits = sortedCopy(waits)
	m["lattice.queue_wait_p50_us"] = quantile(waits, 0.5)
	m["lattice.queue_wait_p90_us"] = quantile(waits, 0.9)
	m["lattice.ready_depth_p90"] = quantile(sortedCopy(u.readyObs), 0.9)
	m["lattice.urgency_misses_per_frame"] = per(c0.urgency, c1.urgency)

	// worker
	for _, op := range append(append([]string(nil), pylotOps...), fanoutOps...) {
		m["worker.run_us_p50."+op] = median(runs[op])
	}
	m["worker.callbacks_per_frame"] = float64(callbacks) / float64(t.frames())

	// stream
	m["stream.delivered_per_frame"] = per(c0.delivered, c1.delivered)
	m["stream.watermark_batches_per_frame"] = per(c0.wmBatches, c1.wmBatches)
	m["stream.stale_drops"] = float64(c1.stale - c0.stale)

	// deadline
	m["deadline.miss_frac"] = float64(u.missedFrames) / n
	m["deadline.misses_per_frame"] = per(c0.misses, c1.misses)
	m["deadline.handler_runs_per_frame"] = per(c0.handlerRuns, c1.handlerRuns)
	uin.missMu.Lock()
	delays := make([]float64, 0, len(uin.missDelays))
	for _, d := range uin.missDelays {
		delays = append(delays, float64(d)/1e3)
	}
	uin.missMu.Unlock()
	delays = sortedCopy(delays)
	m["deadline.handler_delay_p50_us"] = quantile(delays, 0.5)
	m["deadline.handler_delay_p90_us"] = quantile(delays, 0.9)

	// comm
	m["comm.frames_per_frame.typed"] = per(c0.sent.Typed, c1.sent.Typed)
	m["comm.frames_per_frame.raw"] = per(c0.sent.Raw, c1.sent.Raw)
	m["comm.frames_per_frame.gob"] = per(c0.sent.Gob+c0.recv.Gob, c1.sent.Gob+c1.recv.Gob)
	m["comm.wire_bytes_per_frame"] = per(c0.wireBytes, c1.wireBytes)
	m["comm.producer_wire_bytes_per_frame"] = per(c0.producerBytes, c1.producerBytes)
	if fl := c1.linkFlushes - c0.linkFlushes; fl > 0 {
		m["comm.frames_per_flush"] = float64(c1.linkFrames-c0.linkFrames) / float64(fl)
	}
	m["comm.late_flushes_per_frame"] = per(c0.late, c1.late)
	m["comm.relay_envelopes_per_frame"] = per(c0.relaySent, c1.relaySent)
	m["comm.relay_republished_per_frame"] = per(c0.relayRepublished, c1.relayRepublished)
	hops := map[string][]float64{}
	for _, e := range tin.sys.hops() {
		for l := t.first; l <= t.last; l++ {
			a, b := tin.hopStart(e, l), tin.taps.get(e.to, e.stream, l)
			if a != 0 && b != 0 {
				hops[e.name] = append(hops[e.name], float64(b-a)/1e3)
			}
		}
	}
	for _, h := range hopNames {
		s := sortedCopy(hops[h])
		m["comm.hop_us_p50."+h] = quantile(s, 0.5)
		m["comm.hop_us_p90."+h] = quantile(s, 0.9)
	}

	// cluster
	m["cluster.join_s"] = uin.extra["join_s"]
	m["cluster.start_s"] = uin.extra["start_s"]
	m["cluster.heartbeat_bytes"] = float64(c1.heartbeatBytes)
	m["cluster.forwarded_per_frame"] = per(c0.forwarded, c1.forwarded)
	m["cluster.leader_events"] = float64(c1.leaderEvents)

	// pylot and fanout: the system's own stages and paths.
	tin.sys.shapeMetrics(t, m)

	// runtime
	m["runtime.allocs_per_frame"] = per(u.mem0.Mallocs, u.mem1.Mallocs)
	m["runtime.alloc_bytes_per_frame"] = per(u.mem0.TotalAlloc, u.mem1.TotalAlloc)
	m["runtime.gc_cycles_per_kframe"] = 1000 * per(uint64(u.mem0.NumGC), uint64(u.mem1.NumGC))
	m["runtime.goroutines_after_teardown"] = float64(leftover)

	// harness
	gl := sortedCopy(u.genLate)
	m["harness.gen_late_p99_ms"] = quantile(gl, 0.99) / 1e6
	if len(gl) > 0 {
		m["harness.gen_late_max_ms"] = gl[len(gl)-1] / 1e6
	}
	m["harness.latency_p90_ms"] = untracedP90
	lat := sortedCopy(u.latMs)
	m["harness.latency_p99_ms"] = quantile(lat, min(tailPercentile(len(lat)), 99)/100)
	tl := sortedCopy(t.latMs)
	if untracedP50 > 0 {
		m["harness.trace_overhead_pct"] = 100 * (quantile(tl, 0.5) - untracedP50) / untracedP50
	}
	return m
}

// buildTrees assembles the span tree of every measured traced frame that
// has its one output (a frame without is already a failed frame), and
// returns the frames whose tree could not be built: a tap that never
// fired, or instants out of order by more than tapSkew.
func buildTrees(tin *instance, t *window) ([]frameTree, []error) {
	tin.cbByFrame = callbacksOf(t.callbackSpans)
	var trees []frameTree
	var broken []error
	for l := t.first; l <= t.last; l++ {
		if tin.rec(l).outs.Load() != 1 {
			continue
		}
		ft, err := tin.sys.tree(l)
		if err != nil {
			broken = append(broken, err)
			continue
		}
		trees = append(trees, ft)
	}
	return trees, broken
}

// unattributedP50 is the median over frames of the time inside due →
// output that no finer span explains, in microseconds.
func unattributedP50(trees []frameTree) float64 {
	v := make([]float64, 0, len(trees))
	for _, ft := range trees {
		v = append(v, float64(ft.unattributed())/1e3)
	}
	sort.Float64s(v)
	return quantile(v, 0.5)
}
