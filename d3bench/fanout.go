package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/erdos-go/erdos/internal/core/comm/shm"
	"github.com/erdos-go/erdos/internal/core/erdos"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/state"
	"github.com/erdos-go/erdos/internal/core/stream"
)

// Sensor-fanout constants: one raw frame the size of an shm ring, so every
// frame spans several ring chunks, to four consumers over two hosts.
const (
	lidarBytes    = shm.DefaultRingBytes
	fanoutRateHz  = 60
	fanoutSources = 8 // distinct seeded payload templates
)

// fanoutConsumers names the consumers in path order: local on the ingest
// node, over host A's broadcast ring, and the two host-B consumers reached
// through the elected relay.
var fanoutConsumers = []struct{ op, node string }{
	{"c0", "w1"}, {"c1", "w2"}, {"c2", "w3"}, {"c3", "w4"},
}

// resultOK checks a consumer's 4-byte result against the generator's CRC.
func resultOK(want uint32, got []byte) bool {
	return len(got) == 4 && binary.LittleEndian.Uint32(got) == want
}

// lidarFrames makes seeded 1 MB payloads: a template per source, stamped
// with the frame number so every frame's CRC differs. Only the generator
// goroutine touches it.
type lidarFrames struct {
	templates [][]byte
	next      map[uint64][]byte
}

func newLidarFrames(seed int64) *lidarFrames {
	lf := &lidarFrames{next: map[uint64][]byte{}}
	for s := 0; s < fanoutSources; s++ {
		b := make([]byte, lidarBytes)
		for i := 0; i < len(b); i += 8 {
			binary.LittleEndian.PutUint64(b[i:], uint64(unit(seed, 100+uint64(s), uint64(i))*(1<<63)))
		}
		lf.templates = append(lf.templates, b)
	}
	return lf
}

// make builds frame l's payload and its CRC.
func (lf *lidarFrames) make(l uint64) ([]byte, uint32) {
	p := make([]byte, lidarBytes)
	copy(p, lf.templates[l%uint64(len(lf.templates))])
	binary.LittleEndian.PutUint64(p, l)
	return p, crc32.ChecksumIEEE(p)
}

// fusionState holds the consumer results fusion has seen for the frame
// being assembled.
type fusionState struct{ Results [][]byte }

func (s *fusionState) clone() *fusionState {
	return &fusionState{Results: append([][]byte(nil), s.Results...)}
}

func init() { state.RegisterState(&fusionState{}) }

// fanoutSys is the four-worker fanout cluster: w1 and w2 on host A, w3 and
// w4 on host B; lidar ingested and fused at w1. Its leader is one-shot:
// a resident cluster keeps a replay window of every forwarded frame, which
// at 1 MB a frame would make the heap the replay window's size.
type fanoutSys struct {
	*clusterSys
	in     *instance
	frames *lidarFrames
	lidar  stream.ID
	relay  string // host B's elected relay for the lidar stream
	assign map[string]string
}

// fanoutHub is the node where lidar frames are ingested and results fused.
const fanoutHub = "w1"

func buildFanout(in *instance, seed int64) error {
	g := erdos.NewGraph()
	lidar := erdos.IngestStream[[]byte](g, "lidar")
	fused := erdos.AddStream[[]byte](g, "fused")
	results := make([]erdos.Stream[[]byte], len(fanoutConsumers))
	for i, c := range fanoutConsumers {
		results[i] = erdos.AddStream[[]byte](g, "result-"+c.op)
		op := g.Operator(c.op).Place(c.node)
		out := erdos.Output(op, results[i])
		erdos.Input(op, lidar, func(ctx *erdos.Context, t erdos.Timestamp, p []byte) {
			_ = ctx.Send(out, t, binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(p)))
		})
		op.Build()
	}
	// fusion combines the four results of a frame: the fused result is the
	// common CRC, or a 1-byte failure marker when the consumers disagree.
	// The results gathered for a frame are operator state, so they live in
	// the state store's view for that frame.
	fusion := g.Operator("fusion").Place("w1")
	fout := erdos.Output(fusion, fused)
	erdos.WithState(fusion, &fusionState{}, (*fusionState).clone)
	for i := range results {
		erdos.Input(fusion, results[i], func(ctx *erdos.Context, t erdos.Timestamp, p []byte) {
			st := erdos.StateOf[*fusionState](ctx)
			st.Results = append(st.Results, append([]byte(nil), p...))
		})
	}
	fusion.OnWatermark(func(ctx *erdos.Context) {
		st := erdos.StateOf[*fusionState](ctx)
		got := st.Results
		st.Results = nil
		out := []byte{0}
		if len(got) == len(fanoutConsumers) {
			out = got[0]
			for _, r := range got[1:] {
				if string(r) != string(out) {
					out = []byte{0}
				}
			}
		}
		_ = ctx.Send(fout, ctx.Timestamp, out)
	})
	fusion.Build()
	if err := g.Err(); err != nil {
		return err
	}
	raw := g.Raw()

	names := []string{"w1", "w2", "w3", "w4"}
	hosts := map[string]string{"w1": "hostA", "w2": "hostA", "w3": "hostB", "w4": "hostB"}
	cs, err := startCluster(in, raw, names, hosts,
		map[stream.ID]string{lidar.ID(): "w1"}, map[stream.ID][]string{fused.ID(): {"w1"}}, false)
	if err != nil {
		return err
	}
	cs.ingest = fanoutHub
	s := &fanoutSys{clusterSys: cs, in: in, frames: newLidarFrames(seed), lidar: lidar.ID()}
	in.sys = s
	relays := cs.nodes["w1"].Schedule().PeerRelay[uint64(lidar.ID())]
	s.relay = relays["hostB"]

	w1 := cs.nodes["w1"].Worker
	if err := w1.Subscribe(fused.ID(), func(m message.Message) {
		if !m.IsData() {
			return
		}
		r := in.rec(m.Timestamp.L)
		got, _ := m.Payload.([]byte)
		in.output(m.Timestamp.L, r != nil && resultOK(r.crc.Load(), got))
	}); err != nil {
		return err
	}
	// Every consumer's own result is checked against the generator's CRC
	// where it arrives at w1, so a corrupt path is named, not just fused.
	for i := range results {
		op := fanoutConsumers[i].op
		if err := w1.Subscribe(results[i].ID(), func(m message.Message) {
			if !m.IsData() {
				return
			}
			r := in.rec(m.Timestamp.L)
			got, _ := m.Payload.([]byte)
			if r != nil && !resultOK(r.crc.Load(), got) {
				r.bad.Add(1)
				in.noteBadPath(op)
			}
		}); err != nil {
			return err
		}
	}
	s.assign = cs.assignment()
	return in.installTaps(raw, lidar.ID(), fused.ID())
}

func (s *fanoutSys) nodeOf(op string) string { return s.assign[op] }

func (s *fanoutSys) ends() (string, string) { return fanoutHub, fanoutHub }

// pathOf names a consumer node's lidar path for hop names and
// fanout.last_path_share: local, host A's ring, the relay's own delivery,
// or the relay's republish to its co-host.
func (s *fanoutSys) pathOf(node string) string {
	switch {
	case node == fanoutHub:
		return "local"
	case s.hosts[node] == s.hosts[fanoutHub]:
		return "ring"
	case node == s.relay:
		return "relay"
	default:
		return "republish"
	}
}

// hops are each remote consumer's lidar path, timed end to end from the
// ingest hand-off, and its result's way back to fusion over the pairwise
// shm ring or TCP.
func (s *fanoutSys) hops() []hopEdge {
	var e []hopEdge
	for _, c := range fanoutConsumers {
		if c.node != fanoutHub {
			e = append(e, newHop("lidar", s.pathOf(c.node), fanoutHub, c.node, true),
				newHop("result-"+c.op, s.scheme(c.node, fanoutHub), c.node, fanoutHub, false))
		}
	}
	return e
}

// tree builds frame l's span tree: the four consumer paths run in
// parallel under the root (hop, consumer stage, result hop), each from
// the inject's hand-off, and fusion runs from the last result's arrival
// to the fused output.
func (s *fanoutSys) tree(l uint64) (frameTree, error) {
	in := s.in
	r := in.rec(l)
	injS, out := r.injStart.Load(), r.out.Load()
	c := newChain(l, r.due.Load(), injS, out)
	c.to("harness.inject", in.taps.get(fanoutHub, "lidar", l))
	var lastResult int64
	for _, cn := range fanoutConsumers {
		// The local consumer's input arrives inside the Inject call, and
		// its callback may finish before the ingest tap (which runs after
		// the forwarding hand-off) fires.
		c.cur = injS
		if cn.node != fanoutHub {
			c.to("comm.hop.lidar."+s.pathOf(cn.node), in.taps.get(cn.node, "lidar", l))
		}
		res := "result-" + cn.op
		if si := c.to("fanout.stage."+cn.op, in.taps.get(cn.node, res, l)); si >= 0 {
			in.addCallbacks(&c.ft, l, cn.op, si)
		}
		if cn.node != fanoutHub {
			c.to("comm.hop.result."+s.scheme(cn.node, fanoutHub), in.taps.get(fanoutHub, res, l))
		}
		lastResult = max(lastResult, c.cur)
	}
	c.cur = lastResult
	if si := c.to("fanout.stage.fusion", out); si >= 0 {
		in.addCallbacks(&c.ft, l, "fusion", si)
	}
	return c.ft, c.err
}

// shapeMetrics adds how long fusion waits from a frame's first result to
// its last, and which path's result came last.
func (s *fanoutSys) shapeMetrics(t *window, m map[string]float64) {
	var waits []float64
	last := map[string]int{}
	frames := 0
	for l := t.first; l <= t.last; l++ {
		var lo, hi int64
		var lastPath string
		complete := true
		for _, c := range fanoutConsumers {
			at := s.in.taps.get(fanoutHub, "result-"+c.op, l)
			if at == 0 {
				complete = false
				break
			}
			if lo == 0 || at < lo {
				lo = at
			}
			if at > hi {
				hi, lastPath = at, s.pathOf(c.node)
			}
		}
		if complete {
			frames++
			waits = append(waits, float64(hi-lo)/1e3)
			last[lastPath]++
		}
	}
	m["fanout.fusion_wait_us_p50"] = median(waits)
	for _, p := range fanoutPath {
		if frames > 0 {
			m["fanout.last_path_share."+p] = float64(last[p]) / float64(frames)
		}
	}
}

func (s *fanoutSys) prepare(l uint64) {
	p, crc := s.frames.make(l)
	if r := s.in.rec(l); r != nil {
		r.crc.Store(crc)
	}
	s.frames.next[l] = p
}

func (s *fanoutSys) inject(l uint64) error {
	p, ok := s.frames.next[l]
	delete(s.frames.next, l)
	if !ok {
		return fmt.Errorf("frame %d was not prepared", l)
	}
	return injectFrame(s.nodes[fanoutHub].Worker, s.lidar, l, p)
}

// verify adds the fanout's own claims to the link checks: host B has
// exactly one elected relay for the lidar stream and host A none.
func (s *fanoutSys) verify() error {
	if err := s.verifyLinks(); err != nil {
		return err
	}
	relays := s.nodes["w1"].Schedule().PeerRelay[uint64(s.lidar)]
	if len(relays) != 1 || (relays["hostB"] != "w3" && relays["hostB"] != "w4") {
		return fmt.Errorf("lidar relays = %v, want exactly one on hostB", relays)
	}
	return nil
}
