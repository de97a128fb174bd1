package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/erdos-go/erdos/internal/av/control"
	"github.com/erdos-go/erdos/internal/av/tracking"
	"github.com/erdos-go/erdos/internal/core/cluster"
	"github.com/erdos-go/erdos/internal/core/erdos"
	"github.com/erdos-go/erdos/internal/core/graph"
	"github.com/erdos-go/erdos/internal/core/message"
	"github.com/erdos-go/erdos/internal/core/stream"
	"github.com/erdos-go/erdos/internal/core/worker"
	"github.com/erdos-go/erdos/internal/pylot"
)

// Pylot workload constants. TimeScale 1000 keeps emulated compute near a
// millisecond per frame, so runtime overheads are a visible share of the
// latency; the agent sweep makes pDP move the deadline (500 ms far away,
// 125 ms close) and with it the detector and planner budget.
const (
	pylotTimeScale = 1000
	pylotSeed      = 7 // pylot.Config.Seed: the emulated runtime draws
	pylotAgents    = 4
	sweepFrames    = 200
	sweepFar       = 85.0 // metres
	sweepNear      = 5.0
	egoSpeed       = 12.0 // m/s
	threadsPerNode = 2
	heartbeat      = 200 * time.Millisecond
	failAfter      = 600 * time.Millisecond
)

// unit hashes (seed, a, b) to a uniform value in [0, 1) (splitmix64), so
// every input is a pure function of the seed and the frame number.
func unit(seed int64, a, b uint64) float64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + a*0xbf58476d1ce4e5b9 + b*0x94d049bb133111eb + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// scene generates camera frames: a lead agent in the ego lane whose
// distance sweeps from sweepFar to sweepNear every sweepFrames frames, and
// three more agents behind it in the ego and adjacent lanes. The seed
// moves each agent's gap and lane offset by a little and draws the
// per-frame position noise; the sweep itself is the same for every seed,
// so pDP's allocations, and with them the compute per frame, follow the
// same cycle whatever the seed.
type scene struct {
	seed  int64
	gaps  [pylotAgents]float64
	lanes [pylotAgents]float64
}

// baseLanes are the agents' lateral positions before the seed's offset.
var baseLanes = [pylotAgents]float64{0, 3.5, -3.5, 0}

func newScene(seed int64) scene {
	s := scene{seed: seed}
	for k := 1; k < pylotAgents; k++ {
		s.gaps[k] = s.gaps[k-1] + 8 + 4*unit(seed, 1, uint64(k))
	}
	for k := range s.lanes {
		s.lanes[k] = baseLanes[k] + 0.5*(unit(seed, 2, uint64(k))-0.5)
	}
	return s
}

func (s scene) frame(l uint64) pylot.CameraFrame {
	i := l % sweepFrames
	nearest := sweepFar - (sweepFar-sweepNear)*float64(i)/(sweepFrames-1)
	agents := make([]tracking.Observation, pylotAgents)
	for k := range agents {
		agents[k] = tracking.Observation{
			X: nearest + s.gaps[k] + 0.4*(unit(s.seed, 10+l, uint64(k))-0.5),
			Y: s.lanes[k] + 0.2*(unit(s.seed, 20+l, uint64(k))-0.5),
		}
	}
	return pylot.CameraFrame{Seq: l, Agents: agents, EgoSpeed: egoSpeed}
}

// commandOK is the actuator check on every control command: finite,
// throttle and brake in [0, 1], steering within ±90°.
func commandOK(c control.Command) bool {
	for _, v := range []float64{c.Steer, c.Throttle, c.Brake} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return c.Throttle >= 0 && c.Throttle <= 1 && c.Brake >= 0 && c.Brake <= 1 &&
		math.Abs(c.Steer) <= math.Pi/2
}

// pylotStages is the critical path of a frame, in order.
var pylotStages = []stage{
	{op: "perception", in: "camera", out: "obstacles"},
	{op: "prediction", in: "obstacles", out: "predictions"},
	{op: "planning", in: "predictions", out: "plans"},
	{op: "control", in: "plans", out: "commands"},
}

// stage is one operator on a frame's critical path.
type stage struct{ op, in, out string }

// pylotGraph builds the pipeline and resolves its boundary streams.
func pylotGraph(in *instance) (*erdos.Graph, stream.ID, stream.ID, error) {
	g := erdos.NewGraph()
	h := pylot.Build(g, pylot.Config{TimeScale: pylotTimeScale, Seed: pylotSeed, OnMiss: in.onMiss})
	if err := g.Err(); err != nil {
		return nil, 0, 0, err
	}
	return g, h.Camera.ID(), h.Commands.ID(), nil
}

// commandTap is the output tap on the commands stream.
func (in *instance) commandTap(m message.Message) {
	if !m.IsData() {
		return
	}
	c, ok := m.Payload.(control.Command)
	in.output(m.Timestamp.L, ok && commandOK(c))
}

// pylotFrames pre-generates camera frames ahead of their due time. Only
// the generator goroutine touches it.
type pylotFrames struct {
	sc   scene
	next map[uint64]pylot.CameraFrame
}

func (p *pylotFrames) prepare(l uint64) { p.next[l] = p.sc.frame(l) }

func (p *pylotFrames) take(l uint64) pylot.CameraFrame {
	f := p.next[l]
	delete(p.next, l)
	return f
}

// injectFrame sends one frame's data and watermark on an ingest stream.
func injectFrame(w *worker.Worker, id stream.ID, l uint64, payload any) error {
	ts := erdos.T(l)
	if err := w.Inject(id, message.Data(ts, payload)); err != nil {
		return err
	}
	return w.Inject(id, message.Watermark(ts))
}

// pipeline is a pylot system's topology: the node each operator runs on,
// where camera frames enter and commands leave, and each link's scheme.
type pipeline struct {
	in              *instance
	assign          map[string]string
	ingest, extract string
	links           map[string]map[string]string // nil on one worker
}

func (p *pipeline) nodeOf(op string) string { return p.assign[op] }

func (p *pipeline) ends() (string, string) { return p.ingest, p.extract }

// hops are the camera into perception's node, the commands out to the
// extraction node and pDP's deadlines back to perception (off the
// critical path); a pipeline on one node has none.
func (p *pipeline) hops() []hopEdge {
	var e []hopEdge
	add := func(stream, from, to string, fromInject bool) {
		if from != to {
			e = append(e, newHop(stream, p.links[from][to], from, to, fromInject))
		}
	}
	add("camera", p.ingest, p.nodeOf("perception"), true)
	add("commands", p.nodeOf("control"), p.extract, false)
	add("deadlines", p.nodeOf("pDP"), p.nodeOf("perception"), false)
	return e
}

// tree builds frame l's span tree: generator wait, inject, then each
// stage (input tap → output tap, with the operator's callbacks as
// children) and each hop between nodes, ending at the command tap.
func (p *pipeline) tree(l uint64) (frameTree, error) {
	in := p.in
	r := in.rec(l)
	out := r.out.Load()
	c := newChain(l, r.due.Load(), r.injStart.Load(), out)
	// The frame is handed over at the inject; a hop of the camera stream
	// starts there, as in hops.
	node := p.ingest
	if p.nodeOf(pylotStages[0].op) == node {
		c.to("harness.inject", in.taps.get(node, pylotStages[0].in, l))
	}
	for i, st := range pylotStages {
		if n := p.nodeOf(st.op); n != node {
			c.to("comm.hop."+st.in+"."+p.links[node][n], in.taps.get(n, st.in, l))
			node = n
		}
		o := in.taps.get(node, st.out, l)
		if i == len(pylotStages)-1 && node == p.extract {
			o = out
		}
		if si := c.to("pylot.stage."+st.op, o); si >= 0 {
			in.addCallbacks(&c.ft, l, st.op, si)
		}
	}
	if node != p.extract {
		c.to("comm.hop.commands."+p.links[node][p.extract], out)
	}
	return c.ft, c.err
}

// shapeMetrics adds each stage's time from its input tap to its output
// tap on the stage's node.
func (p *pipeline) shapeMetrics(t *window, m map[string]float64) {
	for _, st := range pylotStages {
		node := p.nodeOf(st.op)
		var d []float64
		for l := t.first; l <= t.last; l++ {
			a, b := p.in.taps.get(node, st.in, l), p.in.taps.get(node, st.out, l)
			if a != 0 && b != 0 {
				d = append(d, float64(b-a)/1e3)
			}
		}
		d = sortedCopy(d)
		m["pylot.stage_us_p50."+st.op] = quantile(d, 0.5)
		m["pylot.stage_us_p90."+st.op] = quantile(d, 0.9)
	}
}

// localPylot is the pipeline on one worker (RunLocal).
type localPylot struct {
	pylotFrames
	pipeline
	rt  *erdos.Runtime
	cam stream.ID
}

func buildLocalPylot(in *instance, seed int64) error {
	g, cam, cmd, err := pylotGraph(in)
	if err != nil {
		return err
	}
	rt, err := g.RunLocal(erdos.WithThreads(threadsPerNode), func(o *worker.Options) { o.WrapCallback = in.wrapOpt() })
	if err != nil {
		return err
	}
	assign := map[string]string{}
	for _, op := range g.Raw().Operators() {
		assign[op.Name] = "local"
	}
	s := &localPylot{pylotFrames: pylotFrames{sc: newScene(seed), next: map[uint64]pylot.CameraFrame{}},
		pipeline: pipeline{in: in, assign: assign, ingest: "local", extract: "local"}, rt: rt, cam: cam}
	in.sys = s
	if err := rt.W.Subscribe(cmd, in.commandTap); err != nil {
		return err
	}
	return in.installTaps(g.Raw(), cam, cmd)
}

func (s *localPylot) inject(l uint64) error {
	return injectFrame(s.rt.W, s.cam, l, s.take(l))
}

func (s *localPylot) workers() map[string]*worker.Worker {
	return map[string]*worker.Worker{"local": s.rt.W}
}

func (s *localPylot) snapshot() counters {
	var c counters
	c.addWorker(s.rt.W.Stats())
	return c
}

func (s *localPylot) verify() error { return nil }

func (s *localPylot) close() { s.rt.Stop() }

// clusterSys is a leader and its joined nodes, in this process.
type clusterSys struct {
	leader *cluster.Leader
	nodes  map[string]*cluster.Node
	names  []string
	hosts  map[string]string
	ingest string
	shmDir string
	// links is every node's peer → scheme map, read once the cluster has
	// started, so hops can be named after teardown.
	links map[string]map[string]string
}

// startCluster runs the leader and joins every node concurrently,
// recording join_s (NewLeader → all Join returned) and start_s
// (→ Leader.Wait returned) in in.extra. A resident leader keeps the
// heartbeat control plane running after start.
func startCluster(in *instance, raw *graph.Graph, names []string, hosts map[string]string,
	ingestAt map[stream.ID]string, extractAt map[stream.ID][]string, resident bool) (*clusterSys, error) {
	dir, err := os.MkdirTemp(shmRoot, "c")
	if err != nil {
		return nil, err
	}
	for _, h := range hosts {
		if err := os.MkdirAll(filepath.Join(dir, h), 0o755); err != nil {
			return nil, err
		}
	}
	t0 := in.clk.now()
	var opts []cluster.LeaderOption
	if resident {
		opts = append(opts, cluster.WithHeartbeat(heartbeat, failAfter))
	}
	l, err := cluster.NewLeader("127.0.0.1:0", names, raw, ingestAt, extractAt, opts...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cs := &clusterSys{leader: l, nodes: map[string]*cluster.Node{}, names: names, hosts: hosts, shmDir: dir}
	errs := make([]error, len(names))
	nodes := make([]*cluster.Node, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			nodes[i], errs[i] = cluster.Join(l.Addr(), name, raw,
				worker.Options{Threads: threadsPerNode, WrapCallback: in.wrapOpt()},
				cluster.WithHostLocality(hosts[name], filepath.Join(dir, hosts[name])))
		}(i, name)
	}
	wg.Wait()
	in.extra["join_s"] = float64(in.clk.now()-t0) / 1e9
	for i, name := range names {
		if nodes[i] != nil {
			cs.nodes[name] = nodes[i]
		}
	}
	for i, err := range errs {
		if err != nil {
			cs.close()
			return nil, fmt.Errorf("join %s: %w", names[i], err)
		}
	}
	if err := l.Wait(); err != nil {
		cs.close()
		return nil, fmt.Errorf("leader start: %w", err)
	}
	in.extra["start_s"] = float64(in.clk.now()-t0) / 1e9
	// Join returns before the accepting side of each data-plane link has
	// registered its peer, and a frame forwarded over a link that is not
	// registered yet is dropped. Set-up therefore includes waiting for the
	// full mesh.
	if err := cs.awaitMesh(); err != nil {
		cs.close()
		return nil, err
	}
	cs.links = map[string]map[string]string{}
	for name, n := range cs.nodes {
		cs.links[name] = n.Transport.PeerSchemes()
	}
	return cs, nil
}

// meshTimeout bounds the wait for every node to see every peer.
const meshTimeout = 10 * time.Second

// awaitMesh waits until every node's transport has every other node as a
// peer.
func (cs *clusterSys) awaitMesh() error {
	deadline := time.Now().Add(meshTimeout)
	for {
		missing := ""
		for name, n := range cs.nodes {
			if got := len(n.Transport.Peers()); got < len(cs.names)-1 {
				missing = fmt.Sprintf("%s sees %d of %d peers", name, got, len(cs.names)-1)
				break
			}
		}
		if missing == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("data-plane mesh incomplete after %v: %s", meshTimeout, missing)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (cs *clusterSys) workers() map[string]*worker.Worker {
	ws := make(map[string]*worker.Worker, len(cs.nodes))
	for name, n := range cs.nodes {
		ws[name] = n.Worker
	}
	return ws
}

// assignment returns the operator → node placement the leader chose.
func (cs *clusterSys) assignment() map[string]string {
	return cs.nodes[cs.names[0]].Schedule().Assignments
}

func (cs *clusterSys) snapshot() counters {
	var c counters
	for name, n := range cs.nodes {
		c.addWorker(n.Worker.Stats())
		c.addTransport(n.Transport, name == cs.ingest)
		c.forwarded += n.Forwarded()
		c.heartbeatBytes += n.HeartbeatBytes()
	}
	c.leaderEvents = len(cs.leader.Events())
	return c
}

// scheme returns the link scheme a node used towards peer at start.
func (cs *clusterSys) scheme(from, to string) string { return cs.links[from][to] }

// verifyLinks checks that same-host links ride shm and cross-host links
// TCP, in both directions, and that the leader saw no failover.
func (cs *clusterSys) verifyLinks() error {
	for _, a := range cs.names {
		for _, b := range cs.names {
			if a == b {
				continue
			}
			want := "tcp"
			if cs.hosts[a] == cs.hosts[b] {
				want = "shm"
			}
			if got := cs.nodes[a].Transport.PeerSchemes()[b]; got != want {
				return fmt.Errorf("link %s->%s uses %q, want %q", a, b, got, want)
			}
		}
	}
	if ev := cs.leader.Events(); len(ev) != 0 {
		return fmt.Errorf("leader recorded %d membership events (first: %+v)", len(ev), ev[0])
	}
	return nil
}

func (cs *clusterSys) close() {
	// The leader goes first so closing nodes is not mistaken for failures.
	cs.leader.Stop()
	names := make([]string, 0, len(cs.nodes))
	for name := range cs.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs.nodes[name].Close()
	}
	os.RemoveAll(cs.shmDir)
}

// clusterPylot is the pipeline on three workers: w1 and w2 share host A,
// w3 is on host B. Frames are ingested at w2 and commands extracted at w3.
type clusterPylot struct {
	pylotFrames
	*clusterSys
	pipeline
	cam stream.ID
}

func buildClusterPylot(in *instance, seed int64) error {
	g, cam, cmd, err := pylotGraph(in)
	if err != nil {
		return err
	}
	raw := g.Raw()
	names := []string{"w1", "w2", "w3"}
	hosts := map[string]string{"w1": "hostA", "w2": "hostA", "w3": "hostB"}
	cs, err := startCluster(in, raw, names, hosts,
		map[stream.ID]string{cam: "w2"}, map[stream.ID][]string{cmd: {"w3"}}, true)
	if err != nil {
		return err
	}
	cs.ingest = "w2"
	s := &clusterPylot{pylotFrames: pylotFrames{sc: newScene(seed), next: map[uint64]pylot.CameraFrame{}},
		clusterSys: cs, cam: cam,
		pipeline: pipeline{in: in, assign: cs.assignment(), ingest: "w2", extract: "w3", links: cs.links}}
	in.sys = s
	if err := cs.nodes["w3"].Worker.Subscribe(cmd, in.commandTap); err != nil {
		return err
	}
	return in.installTaps(raw, cam, cmd)
}

func (s *clusterPylot) inject(l uint64) error {
	return injectFrame(s.nodes["w2"].Worker, s.cam, l, s.take(l))
}

func (s *clusterPylot) verify() error { return s.verifyLinks() }
