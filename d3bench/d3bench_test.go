package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/erdos-go/erdos/internal/av/control"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if supports(99, 90) || !supports(100, 90) {
		t.Error("p90 must need exactly 100 samples")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0: 1, 1: 10} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples must be 0")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestOpenLoopScheduleIgnoresSystemSpeed(t *testing.T) {
	s := newSchedule(1_000, 200)
	if s.period != int64(5*time.Millisecond) {
		t.Fatalf("period = %d, want 5ms", s.period)
	}
	// Due times are fixed up front: a frame injected late does not push
	// later frames back.
	for i := 0; i < 5; i++ {
		if got, want := s.due(i), int64(1_000)+int64(i)*int64(5*time.Millisecond); got != want {
			t.Errorf("due(%d) = %d, want %d", i, got, want)
		}
	}
	if got := s.count(10 * time.Second); got != 2000 {
		t.Errorf("count(10s) = %d, want 2000", got)
	}
	burst := newSchedule(7, 0)
	if burst.due(0) != 7 || burst.due(3999) != 7 {
		t.Error("a burst schedule makes every frame due at its start")
	}
}

func TestLatenessExcludesTimeSpentInjecting(t *testing.T) {
	// On time, early wake-up and a wait for the previous inject are not
	// lateness; a sleep overshoot is.
	for _, c := range []struct{ due, start, prevEnd, want int64 }{
		{100, 100, 0, 0},
		{100, 90, 0, 0},
		{100, 150, 140, 10},
		{100, 130, 0, 30},
	} {
		if got := lateness(c.due, c.start, c.prevEnd); got != c.want {
			t.Errorf("lateness(%d, %d, %d) = %d, want %d", c.due, c.start, c.prevEnd, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	span := interval{0, 100}
	for _, c := range []struct {
		name string
		kids []interval
		want int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"clipped", []interval{{-50, 10}, {95, 200}}, 85},
		{"outside", []interval{{200, 300}}, 100},
		{"covering", []interval{{-1, 101}}, 0},
	} {
		if got := selfTime(span, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
	if got := selfTime(interval{50, 40}, nil); got != 0 {
		t.Errorf("inverted span self time = %d, want 0", got)
	}
}

func TestFrameTreeUnattributed(t *testing.T) {
	var ft frameTree
	root := ft.add("frame", 1, 0, 100, -1)
	ft.add("harness.gen_wait", 1, 0, 10, root)
	st := ft.add("pylot.stage.x", 1, 10, 100, root)
	ft.add("lattice.queue.x", 1, 5, 30, st)
	ft.add("worker.run.x", 1, 40, 90, st)
	// The root is fully covered by its children; the stage leaves 30..40
	// and 90..100 to no callback.
	if got := ft.unattributed(); got != 20 {
		t.Errorf("unattributed = %d, want 20", got)
	}
}

func TestChainRejectsMissingAndOutOfOrderTaps(t *testing.T) {
	c := newChain(1, 0, 10, 100)
	c.to("a", 50)
	c.to("b", 50-tapSkew/2) // within the skew two taps may swap
	c.to("c", 100)
	if c.err != nil {
		t.Fatalf("ordered chain failed: %v", c.err)
	}
	if got := c.ft[len(c.ft)-1]; got.Start != 50-tapSkew/2 || got.End != 100 {
		t.Errorf("last span = %+v, want it to start where the previous ended", got)
	}
	if c := newChain(1, 0, 10, 100); c.to("a", 0) != -1 || c.err == nil {
		t.Error("a missing tap must fail the chain")
	}
	c = newChain(1, 0, 10, tapSkew*3)
	c.to("a", tapSkew*2)
	if c.to("b", tapSkew*2-tapSkew-1) != -1 || c.err == nil {
		t.Error("an instant out of order beyond the skew must fail the chain")
	}
}

// TestTracedFrameWithMissingTapIsBroken builds one-node pylot frames from
// hand-set taps: a complete frame yields a tree, and a frame whose
// prediction tap never fired, or fired far out of order, is reported.
func TestTracedFrameWithMissingTapIsBroken(t *testing.T) {
	in := newInstance(3, true)
	assign := map[string]string{}
	for _, st := range pylotStages {
		assign[st.op] = "local"
	}
	in.sys = &localPylot{pipeline: pipeline{in: in, assign: assign, ingest: "local", extract: "local"}}
	streams := []string{"camera", "obstacles", "predictions", "plans", "commands"}
	for _, s := range streams {
		in.taps.at[tapKey{"local", s}] = make(slots, 4)
	}
	const ms = int64(time.Millisecond)
	for l := uint64(1); l <= 3; l++ {
		r := in.rec(l)
		r.due.Store(10 * ms)
		r.injStart.Store(11 * ms)
		for i, s := range streams {
			in.taps.at[tapKey{"local", s}].mark(l, int64(12+i)*ms)
		}
		r.out.Store(16 * ms)
		r.outs.Store(1)
	}
	in.taps.at[tapKey{"local", "predictions"}][2].Store(0)
	in.taps.at[tapKey{"local", "predictions"}][3].Store(ms)
	trees, broken := buildTrees(in, &window{first: 1, last: 3})
	if len(trees) != 1 || len(broken) != 2 || !errors.Is(broken[0], errNoTap) || !errors.Is(broken[1], errDisorder) {
		t.Fatalf("%d trees and broken frames %v, want 1 tree, then a missing tap and a disorder", len(trees), broken)
	}
	if brokenCheck(broken[:1], 1000) == "" {
		t.Error("a single frame missing a tap must fail the run")
	}
	if brokenCheck(broken[1:], 1000) != "" || brokenCheck(broken[1:], 50) == "" {
		t.Error("out-of-order frames must fail the run only above 1 % of traced frames")
	}
	ft := trees[0]
	var kids []interval
	for _, s := range ft[1:] {
		kids = append(kids, s.iv())
	}
	if selfTime(ft[0].iv(), kids) != 0 || ft[0].End-ft[0].Start != 6*ms {
		t.Errorf("complete frame's chain does not cover due → output: %+v", ft)
	}
}

func TestCRCCheckRejectsCorruptedPayload(t *testing.T) {
	lf := newLidarFrames(3)
	p, want := lf.make(42)
	if len(p) != lidarBytes {
		t.Fatalf("payload is %d bytes, want %d", len(p), lidarBytes)
	}
	result := func(b []byte) []byte { return binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(b)) }
	if !resultOK(want, result(p)) {
		t.Fatal("intact payload rejected")
	}
	bad := append([]byte(nil), p...)
	bad[len(bad)/2] ^= 0x01
	if resultOK(want, result(bad)) {
		t.Fatal("corrupted payload accepted")
	}
	if resultOK(want, result(p)[:3]) {
		t.Fatal("short result accepted")
	}
	if _, next := lf.make(43); next == want {
		t.Fatal("consecutive frames share a CRC")
	}
}

func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	a, b, c := newScene(5), newScene(5), newScene(6)
	if !reflect.DeepEqual(a.frame(77), b.frame(77)) {
		t.Fatal("same seed gave different frames")
	}
	if reflect.DeepEqual(a.frame(77), c.frame(77)) {
		t.Fatal("different seeds gave the same frame")
	}
	// The nearest agent sweeps from far to near over a cycle.
	lo, hi := math.Inf(1), math.Inf(-1)
	for l := uint64(0); l < sweepFrames; l++ {
		x := a.frame(l).Agents[0].X
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if lo > sweepNear+1 || hi < sweepFar-1 {
		t.Fatalf("nearest agent spans %.1f..%.1f m, want about %v..%v", lo, hi, sweepNear, sweepFar)
	}
}

func TestCommandCheck(t *testing.T) {
	ok := control.Command{Steer: 0.1, Throttle: 0.5}
	if !commandOK(ok) {
		t.Fatal("valid command rejected")
	}
	for _, c := range []control.Command{
		{Steer: math.NaN()}, {Throttle: 1.5}, {Brake: -0.1}, {Steer: 2}, {Throttle: math.Inf(1)},
	} {
		if commandOK(c) {
			t.Errorf("command %+v accepted", c)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps the repository's BENCHMARK.json in
// step with the metric table the benchmark reports.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricSpec                 `json:"end_to_end"`
		PerLayer  []metricSpec                 `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != workloadWhy[w.name] {
			t.Errorf("workload %d: BENCHMARK.json has %+v, benchmark %s", i, bj.Workloads[i], w.name)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nfile: %+v\nspec: %+v", bj.EndToEnd, endToEnd)
	}
	var want []metricSpec
	for _, m := range perLayerSpec() {
		want = append(want, metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(bj.PerLayer, want) {
		t.Errorf("per_layer differs from the spec (%d vs %d entries)", len(bj.PerLayer), len(want))
	}
}

func TestBetterQuartileTakesTheBetterSide(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	if got := betterQuartile(xs, "lower"); got != 3 {
		t.Errorf("lower-is-better quartile = %v, want 3", got)
	}
	if got := betterQuartile(xs, "higher"); got != 7 {
		t.Errorf("higher-is-better quartile = %v, want 7", got)
	}
}
