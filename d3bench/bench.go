package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// workload is one seeded input set the benchmark drives through the
// runtime. Its why is recorded in BENCHMARK.json.
type workload struct {
	name    string
	rateHz  float64 // open-loop frame rate; 0 = burst
	backlog int     // frames per burst
	warmup  int     // frames run after set-up and excluded from metrics
	build   func(in *instance, seed int64) error
}

var workloads = []*workload{
	{name: "pylot-steady", rateHz: 200, warmup: sweepFrames, build: buildLocalPylot},
	{name: "pylot-burst", backlog: 4000, warmup: sweepFrames, build: buildLocalPylot},
	{name: "pylot-cluster", rateHz: 200, warmup: sweepFrames, build: buildClusterPylot},
	{name: "sensor-fanout", rateHz: fanoutRateHz, warmup: 60, build: buildFanout},
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// setupReps is how many times a run sets the workload up; setup_s is
// their median, and the last set-up is the one measured.
const setupReps = 25

// period is the open-loop inter-frame period in nanoseconds (0 for a burst).
func (w *workload) period() float64 {
	if w.rateHz == 0 {
		return 0
	}
	return float64(time.Second) / w.rateHz
}

// capacity is the number of frame slots an instance needs for a window.
func (w *workload) capacity(seconds time.Duration) int {
	if w.rateHz == 0 {
		// A burst takes over a second to drain on the 2-core hosts this
		// benchmark targets; should one drain faster, the window simply
		// ends when the slots run out.
		return int(w.firstMeasured()) + w.backlog*(int(seconds/time.Second)+3)
	}
	return w.warmup + int(w.rateHz*seconds.Seconds()) + 2
}

// window is what one measured window of an instance produced.
type window struct {
	first, last   uint64 // measured frames
	blocks        []block
	injectErrs    int
	latMs         []float64
	mem0, mem1    runtime.MemStats
	c0, c1        counters
	genLate       []float64 // ns
	readyObs      []float64
	failed        int
	missedFrames  int
	badFrames     int
	callbackSpans []*cbSpan
	startNs       int64
}

// block is one slice of a window: an open-loop window is cut into
// openLoopBlocks equal runs of frames, a burst window into its bursts.
// An end-to-end metric is the quartile of its per-block figures on the
// metric's better side (see betterQuartile).
type block struct {
	lo, hi   uint64
	cpu      time.Duration
	heapPeak uint64
	drainFps float64
}

const openLoopBlocks = 9

func (w *window) frames() int { return int(w.last - w.first + 1) }

// setUp builds the workload and times graph build → first warm-up output.
func (w *workload) setUp(in *instance, seed int64) error {
	t0 := in.clk.now()
	if err := w.build(in, seed); err != nil {
		return fmt.Errorf("build: %w", err)
	}
	in.sys.prepare(1)
	r := in.rec(1)
	r.due.Store(in.clk.now())
	r.injStart.Store(in.clk.now())
	if err := in.sys.inject(1); err != nil {
		return fmt.Errorf("first frame: %w", err)
	}
	if err := in.awaitOutputs(1, 1, nil); err != nil {
		return err
	}
	in.setupNs = r.out.Load() - t0
	return nil
}

// firstMeasured is the first frame of the measured window: after the
// warm-up frames, and for a burst workload after one warm-up burst.
func (w *workload) firstMeasured() uint64 {
	return uint64(w.warmup + w.backlog + 1)
}

// warmUp runs the rest of the warm-up frames open loop at the workload's
// rate (200 Hz for a burst workload, followed by one unmeasured burst, so
// every measured burst meets queues, heap and handler goroutines that
// have already grown once) and waits for their outputs.
func (w *workload) warmUp(in *instance) error {
	rate := w.rateHz
	if rate == 0 {
		rate = 200
	}
	sch := newSchedule(in.clk.now(), rate)
	for i := 2; i <= w.warmup; i++ {
		l := uint64(i)
		in.sys.prepare(l)
		r := in.rec(l)
		due := sch.due(i - 2)
		r.due.Store(due)
		sleepUntil(in.clk, due)
		r.injStart.Store(in.clk.now())
		if err := in.sys.inject(l); err != nil {
			return fmt.Errorf("warm-up frame %d: %w", l, err)
		}
	}
	if err := in.awaitOutputs(1, uint64(w.warmup), nil); err != nil {
		return err
	}
	if w.backlog == 0 {
		return nil
	}
	scratch := &window{}
	due, prevEnd := in.clk.now(), int64(0)
	for l := uint64(w.warmup + 1); l < w.firstMeasured(); l++ {
		in.sys.prepare(l)
		prevEnd = in.injectOne(scratch, l, due, prevEnd)
	}
	if err := in.awaitOutputs(uint64(w.warmup+1), w.firstMeasured()-1, nil); err != nil {
		return err
	}
	return in.waitHandlers()
}

// sleepUntil blocks until the run clock reaches at. The runtime's timers
// wake up to a millisecond late on Linux, so the last stretch is a
// nanosleep on the thread, which lands within about 0.1 ms.
func sleepUntil(clk clock, at int64) {
	if d := at - clk.now() - int64(coarseSlack); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if d := at - clk.now(); d > 0 {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only adds lateness, which is measured
	}
}

// coarseSlack is how long before a due time the generator switches from
// the runtime timer to nanosleep.
const coarseSlack = 2 * time.Millisecond

// measure runs one window on a warmed-up instance.
func (w *workload) measure(in *instance, seconds time.Duration) (*window, error) {
	win := &window{first: w.firstMeasured()}
	smp := newSampler(in.sys.workers())
	win.c0 = in.sys.snapshot()
	runtime.ReadMemStats(&win.mem0)
	win.startNs = in.clk.now()

	var err error
	if w.rateHz > 0 {
		err = w.openLoop(in, win, smp, seconds)
	} else {
		err = w.bursts(in, win, smp, seconds)
	}
	if err != nil {
		return nil, err
	}
	if err := in.waitHandlers(); err != nil {
		return nil, err
	}

	runtime.ReadMemStats(&win.mem1)
	win.c1 = in.sys.snapshot()
	win.readyObs = smp.readyObs
	if in.tr != nil {
		win.callbackSpans = in.tr.snapshot()
	}
	for l := win.first; l <= win.last; l++ {
		r := in.rec(l)
		switch {
		case r.outs.Load() != 1:
			win.failed++
		case r.bad.Load() != 0:
			win.badFrames++
			win.failed++
		default:
			win.latMs = append(win.latMs, float64(r.out.Load()-r.due.Load())/1e6)
		}
		if r.missed.Load() {
			win.missedFrames++
		}
	}
	// A frame whose inject failed has no output, so it is already counted.
	return win, nil
}

// waitHandlers waits, bounded, for every worker's in-flight deadline
// exception handlers.
func (in *instance) waitHandlers() error {
	for _, ww := range in.sys.workers() {
		if err := bounded("DEH handlers", outputTimeout, ww.WaitHandlers); err != nil {
			return err
		}
	}
	return nil
}

// injectOne hands frame l to the system and records its timeline; it
// returns the inject's end instant.
func (in *instance) injectOne(win *window, l uint64, due, prevEnd int64) int64 {
	r := in.rec(l)
	r.due.Store(due)
	sleepUntil(in.clk, due)
	s := in.clk.now()
	r.injStart.Store(s)
	if err := in.sys.inject(l); err != nil {
		win.injectErrs++
	}
	e := in.clk.now()
	win.genLate = append(win.genLate, float64(lateness(due, s, prevEnd)))
	return e
}

// openLoop injects frames on the schedule for the window, then waits for
// their outputs. Frames that never get an output count as failed. The
// generator makes each frame's payload just before its due time; that is
// harness work (a 1 MB copy and CRC on the fanout), so its CPU time,
// taken on the generator's own thread, is left out of the block's.
func (w *workload) openLoop(in *instance, win *window, smp *sampler, seconds time.Duration) error {
	sch := newSchedule(in.clk.now()+int64(2*time.Millisecond), w.rateHz)
	n := min(sch.count(seconds), len(in.frames)-int(win.first))
	win.last = win.first + uint64(n) - 1
	var prevEnd int64
	cpu := cpuTime()
	for b := 0; b < openLoopBlocks; b++ {
		blk := block{lo: win.first + uint64(b*n/openLoopBlocks), hi: win.first + uint64((b+1)*n/openLoopBlocks) - 1}
		smp.heapPeak = 0
		var gen time.Duration
		for l := blk.lo; l <= blk.hi; l++ {
			gen += prepareCPU(in.sys, l)
			prevEnd = in.injectOne(win, l, sch.due(int(l-win.first)), prevEnd)
			// Sampled after the frame is handed over, before the next
			// due time: the queues the next frame will meet, and the heap.
			smp.sample()
		}
		if b == openLoopBlocks-1 {
			// Outputs that never come are failures, not a reason to abort.
			_ = in.awaitOutputs(win.first, win.last, smp)
		}
		now := cpuTime()
		blk.cpu, cpu = now-cpu-gen, now
		blk.heapPeak = smp.heapPeak
		win.blocks = append(win.blocks, blk)
	}
	for i := range win.blocks {
		b := &win.blocks[i]
		if out := maxOut(in, b.lo, b.hi); out > 0 {
			b.drainFps = float64(b.hi-b.lo+1) / (float64(out-in.rec(b.lo).due.Load()) / 1e9)
		}
	}
	return nil
}

// prepareCPU makes frame l's payload and returns the CPU time that took.
// The goroutine stays on one thread only for the call, so the generator's
// sleeps wake up like any other goroutine's.
func prepareCPU(sys system, l uint64) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t := threadCPU()
	sys.prepare(l)
	return threadCPU() - t
}

// bursts injects backlogs of w.backlog frames all due at the same instant,
// one after another until the window is spent. Each burst is a block; its
// drain rate is backlog ÷ (first inject → last output).
func (w *workload) bursts(in *instance, win *window, smp *sampler, seconds time.Duration) error {
	end := in.clk.now() + int64(seconds)
	l := win.first
	for cycle := 0; cycle == 0 || in.clk.now() < end; cycle++ {
		if int(l)+w.backlog > len(in.frames) {
			break
		}
		blk := block{lo: l, hi: l + uint64(w.backlog) - 1}
		for f := blk.lo; f <= blk.hi; f++ {
			in.sys.prepare(f)
		}
		smp.heapPeak = 0
		cpu := cpuTime()
		due, prevEnd := in.clk.now(), int64(0)
		for f := blk.lo; f <= blk.hi; f++ {
			prevEnd = in.injectOne(win, f, due, prevEnd)
		}
		smp.sample()
		_ = in.awaitOutputs(blk.lo, blk.hi, smp)
		if out := maxOut(in, blk.lo, blk.hi); out > 0 {
			blk.drainFps = float64(w.backlog) / (float64(out-in.rec(blk.lo).injStart.Load()) / 1e9)
		}
		if err := in.waitHandlers(); err != nil {
			return err
		}
		blk.cpu = cpuTime() - cpu
		blk.heapPeak = smp.heapPeak
		win.blocks = append(win.blocks, blk)
		l = blk.hi + 1
	}
	win.last = l - 1
	return nil
}

// maxOut returns the latest output instant over frames lo..hi (0 when a
// frame has none).
func maxOut(in *instance, lo, hi uint64) int64 {
	var m int64
	for f := lo; f <= hi; f++ {
		o := in.rec(f).out.Load()
		if o == 0 {
			return 0
		}
		m = max(m, o)
	}
	return m
}

// e2e computes the end-to-end metrics of an untraced window: each is the
// better quartile over the window's blocks of the block's figure, and
// setup_s the median over set-ups.
func e2e(in *instance, win *window, setups []float64) (map[string]float64, map[string][]float64) {
	var p50, p90, fps, cpu, heap []float64
	for _, b := range win.blocks {
		var lat []float64
		for l := b.lo; l <= b.hi; l++ {
			if r := in.rec(l); r.outs.Load() == 1 {
				lat = append(lat, float64(r.out.Load()-r.due.Load())/1e6)
			}
		}
		lat = sortedCopy(lat)
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
		fps = append(fps, b.drainFps)
		cpu = append(cpu, float64(b.cpu)/1e6/float64(b.hi-b.lo+1))
		heap = append(heap, float64(b.heapPeak)/(1<<20))
	}
	perBlock := map[string][]float64{
		"latency_p50_ms":   p50,
		"latency_p90_ms":   p90,
		"drain_fps":        fps,
		"cpu_ms_per_frame": cpu,
		"heap_peak_mb":     heap,
		"setup_s":          setups,
	}
	m := make(map[string]float64, len(endToEnd))
	for _, s := range endToEnd {
		if s.Name == "setup_s" {
			m[s.Name] = median(setups)
		} else {
			m[s.Name] = betterQuartile(perBlock[s.Name], s.Better)
		}
	}
	return m, perBlock
}

// betterQuartile is the quartile of xs on the better side: the lower
// quartile of a lower-is-better metric, the upper of a higher-is-better
// one. On a shared host, interference (hypervisor steal, a co-tenant's
// burst on a sibling core) only ever slows a block down, and it comes
// and goes within a run. Its better quartile reads the system as the
// quieter blocks saw it, steadier than the median while still resting
// on several blocks; a change to the code moves every block.
func betterQuartile(xs []float64, better string) float64 {
	q := 0.25
	if better == "higher" {
		q = 0.75
	}
	return quantile(sortedCopy(xs), q)
}

// finite reports whether every value is a finite number.
func finite(m map[string]float64) error {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", k, v)
		}
	}
	return nil
}
