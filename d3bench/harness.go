package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/erdos-go/erdos/internal/core/comm"
	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/operator"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/worker"
)

// Timeouts that bound every wait, so a hung runtime fails the run instead
// of stalling it.
const (
	outputTimeout   = 60 * time.Second
	teardownTimeout = 20 * time.Second
	leakGrace       = 3 * time.Second
)

// frameRec is one generated frame's timeline. The generator writes due and
// inject times; taps on runtime goroutines write the rest, lock-free.
type frameRec struct {
	due, injStart atomic.Int64
	out           atomic.Int64 // first output tap
	outs          atomic.Int32 // outputs seen
	bad           atomic.Int32 // outputs that failed their check
	missed        atomic.Bool  // at least one DEH activation
	crc           atomic.Uint32
}

// system is one built system under test.
type system interface {
	// prepare generates frame l's payload ahead of its due time.
	prepare(l uint64)
	// inject sends frame l's data and watermark at the ingest point.
	inject(l uint64) error
	// workers maps node name to its worker.
	workers() map[string]*worker.Worker
	// snapshot reads the public counters of every layer.
	snapshot() counters
	// verify checks the topology the workload claims (link schemes,
	// relay election, no failover events).
	verify() error
	// close tears the system down; the caller bounds it with a timeout.
	close()

	// nodeOf names the node operator op runs on; ends names the nodes
	// where frames are injected and where outputs are tapped.
	nodeOf(op string) string
	ends() (ingest, extract string)
	// hops lists the stream crossings between nodes a traced run times.
	hops() []hopEdge
	// tree builds traced frame l's span tree from the instance's taps; it
	// fails when a tap the tree needs never fired or fired out of order.
	tree(l uint64) (frameTree, error)
	// shapeMetrics adds, from a traced window, the per-layer metrics of
	// the system's own shape: pipeline stages or fanout paths.
	shapeMetrics(t *window, m map[string]float64)
}

// instance is one set-up of a workload: the system plus the per-frame
// records its taps fill.
type instance struct {
	clk    clock
	frames []frameRec
	tr     *tracer // nil in untraced runs
	taps   *taps   // frame-keyed intermediate taps, traced runs only
	sys    system
	closed bool

	missMu     sync.Mutex
	missDelays []int64

	setupNs int64
	extra   map[string]float64 // workload-specific set-up figures

	cbByFrame map[uint64][]*cbSpan // traced callback spans, by frame

	badMu    sync.Mutex
	badPaths map[string]int // consumer → CRC mismatches
}

// noteBadPath counts a consumer result that failed its CRC check.
func (in *instance) noteBadPath(op string) {
	in.badMu.Lock()
	if in.badPaths == nil {
		in.badPaths = map[string]int{}
	}
	in.badPaths[op]++
	in.badMu.Unlock()
}

func newInstance(capacity int, traced bool) *instance {
	in := &instance{clk: clock{epoch: time.Now()}, frames: make([]frameRec, capacity+1), extra: map[string]float64{}}
	if traced {
		in.tr = newTracer(in.clk)
		in.taps = newTaps(in.clk, capacity+1)
	}
	return in
}

func (in *instance) rec(l uint64) *frameRec {
	if l == 0 || l >= uint64(len(in.frames)) {
		return nil
	}
	return &in.frames[l]
}

// output is called by the output tap for frame l; ok reports whether the
// output passed its check.
func (in *instance) output(l uint64, ok bool) {
	r := in.rec(l)
	if r == nil {
		return
	}
	r.out.CompareAndSwap(0, in.clk.now())
	r.outs.Add(1)
	if !ok {
		r.bad.Add(1)
	}
}

// onMiss is the pylot.Config.OnMiss hook: it counts the frame as missed
// and records the handler's start delay after expiry.
func (in *instance) onMiss(h *operator.HandlerContext) {
	if r := in.rec(h.Miss.Timestamp.L); r != nil {
		r.missed.Store(true)
	}
	d := in.clk.now() - in.clk.at(h.Miss.ExpiredAt)
	in.missMu.Lock()
	in.missDelays = append(in.missDelays, d)
	in.missMu.Unlock()
}

// wrapOpt returns the WrapCallback hook of a traced instance (nil otherwise).
func (in *instance) wrapOpt() func(string, func()) func() {
	if in.tr == nil {
		return nil
	}
	return in.tr.wrap
}

// installTaps subscribes, in a traced run, a tap on every operator input
// and output at the operator's node, on the ingest and extraction points
// and on both ends of every hop; input taps also key pending callback
// spans to frames. Call it once the instance's topology is set.
func (in *instance) installTaps(g *graph.Graph, ingest, extract stream.ID) error {
	if in.tr == nil {
		return nil
	}
	ws := in.sys.workers()
	ids := map[string]stream.ID{}
	names := map[stream.ID]string{}
	for _, s := range g.Streams() {
		ids[s.Name], names[s.ID] = s.ID, s.Name
	}
	consumers := map[tapKey][]string{}
	var order []tapKey
	add := func(node string, id stream.ID) {
		k := tapKey{node, names[id]}
		if _, seen := consumers[k]; !seen {
			order = append(order, k)
			consumers[k] = nil
		}
	}
	for _, op := range g.Operators() {
		n := in.sys.nodeOf(op.Name)
		for _, id := range op.Inputs {
			add(n, id)
			k := tapKey{n, names[id]}
			consumers[k] = append(consumers[k], op.Name)
		}
		for _, id := range op.Outputs {
			add(n, id)
		}
	}
	ingestNode, extractNode := in.sys.ends()
	add(ingestNode, ingest)
	add(extractNode, extract)
	for _, e := range in.sys.hops() {
		add(e.from, ids[e.stream])
		add(e.to, ids[e.stream])
	}
	for _, k := range order {
		if err := in.taps.add(ws[k.node], k.node, k.stream, ids[k.stream], in.tr, consumers[k]); err != nil {
			return err
		}
	}
	return nil
}

// counters is a snapshot of every layer's public counters, summed over
// the nodes of the system.
type counters struct {
	delivered, stale, wmBatches, misses, handlerRuns, urgency uint64

	sent, recv                    comm.FrameStats
	wireBytes, producerBytes      uint64
	linkFrames, linkFlushes, late uint64
	relaySent, relayRepublished   uint64
	forwarded, heartbeatBytes     uint64
	leaderEvents                  int
}

func (c *counters) addWorker(s worker.Stats) {
	c.delivered += s.Delivered
	c.stale += s.DroppedStale
	c.wmBatches += s.WatermarkBatches
	c.misses += s.DeadlineMisses
	c.handlerRuns += s.HandlerRuns
	c.urgency += s.UrgencyMisses
}

// addTransport folds one node's transport counters in; producer marks the
// ingest node, whose wire bytes are also reported on their own.
func (c *counters) addTransport(t *comm.Transport, producer bool) {
	s, r := t.SentFrames(), t.ReceivedFrames()
	c.sent.Raw += s.Raw
	c.sent.Typed += s.Typed
	c.sent.Gob += s.Gob
	c.recv.Raw += r.Raw
	c.recv.Typed += r.Typed
	c.recv.Gob += r.Gob
	for _, p := range t.PeerCoalesceStats() {
		c.wireBytes += p.Bytes
		c.linkFrames += p.Frames
		c.linkFlushes += p.Flushes
		if producer {
			c.producerBytes += p.Bytes
		}
	}
	_, _, late := t.CoalesceStats()
	c.late += late
	sent, _, rep := t.RelayStats()
	c.relaySent += sent
	c.relayRepublished += rep
}

// sampler tracks the peak heap in use and lattice ready depths, sampled by
// the generator between frames.
type sampler struct {
	ms        []metrics.Sample
	heapPeak  uint64
	readyObs  []float64
	readyFrom []*worker.Worker
}

func newSampler(ws map[string]*worker.Worker) *sampler {
	s := &sampler{ms: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
	for _, w := range ws {
		s.readyFrom = append(s.readyFrom, w)
	}
	return s
}

func (s *sampler) sample() {
	metrics.Read(s.ms)
	// HeapInuse = heap objects + heap unused (runtime/metrics docs).
	if v := s.ms[0].Value.Uint64() + s.ms[1].Value.Uint64(); v > s.heapPeak {
		s.heapPeak = v
	}
	var ready int64
	for _, w := range s.readyFrom {
		ready += w.Congestion().Ready
	}
	s.readyObs = append(s.readyObs, float64(ready))
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration { return rusage(syscall.RUSAGE_SELF) }

// threadCPU returns the calling OS thread's user+system CPU time; the
// caller must be locked to its thread.
func threadCPU() time.Duration { return rusage(syscall.RUSAGE_THREAD) }

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// bounded runs f and waits at most timeout for it. On timeout it dumps
// every goroutine to stderr and returns an error; f's goroutine is left
// behind, and the caller is expected to exit.
func bounded(what string, timeout time.Duration, f func()) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return nil
	case <-t.C:
		fmt.Fprintf(os.Stderr, "d3bench: %s did not finish within %v; goroutines:\n", what, timeout)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		return fmt.Errorf("%s timed out after %v", what, timeout)
	}
}

// teardown closes the instance's system under the teardown timeout.
func (in *instance) teardown() error {
	if in.sys == nil || in.closed {
		return nil
	}
	in.closed = true
	return bounded("teardown", teardownTimeout, in.sys.close)
}

// goroutinesAbove waits up to leakGrace for the goroutine count to fall to
// base and returns how far above base it stayed.
func goroutinesAbove(base int) int {
	deadline := time.Now().Add(leakGrace)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return max(0, n-base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitOutputs waits until every frame in [lo, hi] has an output, sampling
// between polls.
func (in *instance) awaitOutputs(lo, hi uint64, smp *sampler) error {
	deadline := time.Now().Add(outputTimeout)
	next := lo
	for {
		for next <= hi && in.frames[next].outs.Load() > 0 {
			next++
		}
		if next > hi {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("outputs did not arrive: frame %d of %d..%d", next, lo, hi)
		}
		if smp != nil {
			smp.sample()
		}
		time.Sleep(time.Millisecond)
	}
}
