package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/worker"
)

// clock is the run's monotonic time base; every recorded instant is
// nanoseconds since epoch.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// at converts a wall-clock instant (with monotonic reading) to the run clock.
func (c clock) at(t time.Time) int64 { return int64(t.Sub(c.epoch)) }

// slots is a per-frame array of first-arrival instants, indexed by logical
// time. Writers are taps on runtime goroutines; they never block.
type slots []atomic.Int64

// mark records t for frame l unless an earlier instant is already there.
func (s slots) mark(l uint64, t int64) {
	if l < uint64(len(s)) {
		s[l].CompareAndSwap(0, t)
	}
}

func (s slots) get(l uint64) int64 {
	if l < uint64(len(s)) {
		return s[l].Load()
	}
	return 0
}

// cbSpan is one operator callback seen through worker.Options.WrapCallback:
// created at submit, started and ended at dispatch. Its frame is learnt
// from the tap on the operator's input that fires right after the submit
// (the runtime's own subscriber runs before the benchmark's).
type cbSpan struct {
	op                  string
	created, start, end atomic.Int64
	frame               atomic.Uint64
}

// tracer records callback spans and the frame-keyed taps of a traced run.
// Spans stay in memory until the run ends.
type tracer struct {
	clk clock
	mu  sync.Mutex
	// pending holds each operator's spans whose frame is not yet known.
	pending map[string][]*cbSpan
	spans   []*cbSpan
}

func newTracer(clk clock) *tracer {
	return &tracer{clk: clk, pending: make(map[string][]*cbSpan)}
}

// wrap is the worker.Options.WrapCallback hook.
func (t *tracer) wrap(op string, f func()) func() {
	s := &cbSpan{op: op}
	s.created.Store(t.clk.now())
	t.mu.Lock()
	t.pending[op] = append(t.pending[op], s)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return func() {
		s.start.Store(t.clk.now())
		f()
		s.end.Store(t.clk.now())
	}
}

// key assigns frame l to every pending span of ops.
func (t *tracer) key(ops []string, l uint64) {
	t.mu.Lock()
	for _, op := range ops {
		for _, s := range t.pending[op] {
			s.frame.Store(l)
		}
		t.pending[op] = t.pending[op][:0]
	}
	t.mu.Unlock()
}

// snapshot returns the callback spans recorded so far.
func (t *tracer) snapshot() []*cbSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*cbSpan(nil), t.spans...)
}

// tapKey names one stream's broadcaster on one node.
type tapKey struct{ node, stream string }

// taps holds the first data arrival of every frame at each tapped
// broadcaster. The map is filled before the run starts and read-only after.
type taps struct {
	clk  clock
	size int
	at   map[tapKey]slots
}

func newTaps(clk clock, size int) *taps {
	return &taps{clk: clk, size: size, at: make(map[tapKey]slots)}
}

// add subscribes a tap on stream id of w. keyOps are the operators on
// this node consuming the stream: their pending callback spans belong to
// the frame whose message the tap sees.
func (tp *taps) add(w *worker.Worker, node, name string, id stream.ID, tr *tracer, keyOps []string) error {
	k := tapKey{node, name}
	if _, dup := tp.at[k]; dup {
		return nil
	}
	s := make(slots, tp.size)
	tp.at[k] = s
	return w.Subscribe(id, func(m message.Message) {
		if m.IsData() {
			s.mark(m.Timestamp.L, tp.clk.now())
		}
		if len(keyOps) > 0 && !m.Timestamp.IsTop() {
			tr.key(keyOps, m.Timestamp.L)
		}
	})
}

func (tp *taps) get(node, name string, l uint64) int64 {
	return tp.at[tapKey{node, name}].get(l)
}

// span is one recorded interval of a traced frame. Parent is the index of
// the enclosing span in the same frame's list (-1 for the root).
type span struct {
	Name   string `json:"name"`
	Frame  uint64 `json:"frame"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) iv() interval { return interval{s.Start, s.End} }

// frameTree is one frame's spans; index 0 is the root (due → output).
type frameTree []span

// add appends a span under parent and returns its index.
func (ft *frameTree) add(name string, frame uint64, start, end int64, parent int) int {
	*ft = append(*ft, span{Name: name, Frame: frame, Start: start, End: end, Parent: parent})
	return len(*ft) - 1
}

// unattributed sums the self time of every span that has children: time
// inside the frame's due → output interval that no finer span explains.
func (ft frameTree) unattributed() int64 {
	kids := make(map[int][]interval)
	for _, s := range ft {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.iv())
		}
	}
	var total int64
	for i, s := range ft {
		if ch, ok := kids[i]; ok {
			total += selfTime(s.iv(), ch)
		}
	}
	return total
}

// writeSpans writes every frame tree as JSON lines under dir.
func writeSpans(dir, name string, trees []frameTree) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, ft := range trees {
		for _, s := range ft {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
