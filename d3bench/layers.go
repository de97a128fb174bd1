package main

import (
	"errors"
	"fmt"
	"strings"
)

// hopEdge is one stream crossing between two nodes, named
// "<stream>.<path>" as in the per-layer metric names. A hop of an ingest
// stream starts at the generator's Inject call (the hand-off at the
// ingest node); any other hop at the producer node's tap, which fires
// once the runtime's own forwarding subscriber has returned.
type hopEdge struct {
	name, stream, from, to string
	fromInject             bool
}

// newHop names a hop after its stream (without a "-<op>" suffix) and path.
func newHop(stream, path, from, to string, fromInject bool) hopEdge {
	base, _, _ := strings.Cut(stream, "-")
	return hopEdge{name: base + "." + path, stream: stream, from: from, to: to, fromInject: fromInject}
}

// hopStart returns the instant frame l's hop began (0 if unknown).
func (in *instance) hopStart(e hopEdge, l uint64) int64 {
	if e.fromInject {
		return in.rec(l).injStart.Load()
	}
	return in.taps.get(e.from, e.stream, l)
}

// tapSkew is how far one instant of a frame's chain may precede the one
// before it. Two taps on different goroutines can fire in either order:
// an operator's input tap runs after the runtime's own subscriber has
// submitted the callback, which may already have sent its output. A
// larger inversion means a tap recorded the wrong instant or frame.
const tapSkew = 2_000_000 // ns

// A traced frame's chain fails with errNoTap when a tap it needs never
// fired, and with errDisorder when an instant precedes the one before it
// by more than tapSkew.
var (
	errNoTap    = errors.New("no tap")
	errDisorder = errors.New("out of order")
)

// chain builds a frame tree whose root's children run back to back: each
// step starts where the previous one ended. It records the first missing
// tap or out-of-order instant, so a tree that could not be built, or was
// built from instants in the wrong order, fails the traced run.
type chain struct {
	ft  frameTree // ft[0] is the root
	l   uint64
	cur int64
	err error
}

func newChain(l uint64, due, injS, out int64) *chain {
	c := &chain{l: l, cur: injS}
	c.ft.add("frame", l, due, out, -1)
	c.ft.add("harness.gen_wait", l, due, injS, 0)
	return c
}

// to appends a span named name under the root, from the chain's current
// instant to at, and returns its index (-1 once the chain has failed).
func (c *chain) to(name string, at int64) int {
	if c.err != nil {
		return -1
	}
	switch {
	case at == 0:
		c.err = fmt.Errorf("frame %d: %w for %s", c.l, errNoTap, name)
		return -1
	case at < c.cur-tapSkew:
		c.err = fmt.Errorf("frame %d: %s %w: ends %d us before it starts", c.l, name, errDisorder, (c.cur-at)/1e3)
		return -1
	}
	i := c.ft.add(name, c.l, c.cur, at, 0)
	c.cur = at
	return i
}

// addCallbacks puts op's queue-wait and run spans for frame l under parent.
func (in *instance) addCallbacks(ft *frameTree, l uint64, op string, parent int) {
	for _, cb := range in.cbByFrame[l] {
		if cb.op != op {
			continue
		}
		c, s, e := cb.created.Load(), cb.start.Load(), cb.end.Load()
		ft.add("lattice.queue."+op, l, c, s, parent)
		ft.add("worker.run."+op, l, s, e, parent)
	}
}

// callbacksOf indexes a traced window's callback spans by frame.
func callbacksOf(spans []*cbSpan) map[uint64][]*cbSpan {
	m := make(map[uint64][]*cbSpan)
	for _, s := range spans {
		if f := s.frame.Load(); f != 0 && s.end.Load() != 0 {
			m[f] = append(m[f], s)
		}
	}
	return m
}
