// Command d3bench is the repository's end-to-end benchmark: it drives
// seeded pylot and sensor-fanout workloads through the real ERDOS runtime
// in one process, times every frame from its due time to its control
// command (or fused result), checks every output, and prints one JSON
// result line. With -trace 1 it also runs a traced instance and reports
// the per-layer breakdown instead of the end-to-end metrics.
//
// Run it from the repository root through d3bench/run.sh, which builds it:
//
//	bash d3bench/run.sh --workload pylot-steady --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// outRoot holds everything a run writes: records, spans, shm rings.
const outRoot = ".bench_build/d3bench"

var shmRoot = filepath.Join(outRoot, "shm")

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spec := flag.Bool("spec", false, "print the metric table and exit")
	flag.Parse()
	if *spec {
		printSpec()
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "d3bench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(shmRoot, 0o755); err != nil {
		fail(err)
	}
	fp := hostFingerprint(*seed, w.name, *trace == 1)
	fmt.Fprintf(os.Stderr, "d3bench: host %s\n", fp.String())

	res, rec, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fail(err)
	}
	rec["fingerprint"] = fp
	if res.Correct {
		path := filepath.Join(outRoot, "records", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
		if err := writeJSON(path, rec); err != nil {
			fmt.Fprintf(os.Stderr, "d3bench: record not written: %v\n", err)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// maxLateShare is the share of frames the generator may hand over late
// before a run is invalid. A late frame's lateness is part of its
// latency, which runs from the due time, so jitter in the generator's
// wake-ups is measured, not hidden; a generator that cannot keep up with
// its rate is late on nearly every frame. The generator shares the
// process's two Ps with the runtime under test and its collector, and
// while the host runs slow its wake-ups on pylot-steady missed a quarter
// of the median latency (about 0.24 ms) on up to 18 % of frames.
const maxLateShare = 0.10

func fail(err error) {
	fmt.Fprintf(os.Stderr, "d3bench: %v\n", err)
	os.Exit(1)
}

// run sets the workload up, measures it and tears it down: untraced for
// the end-to-end metrics; untraced and then traced for per-layer metrics.
func run(w *workload, seed int64, seconds time.Duration, traced bool) (result, map[string]any, error) {
	base := runtime.NumGoroutine()
	var setups []float64
	var in *instance
	reps := setupReps
	if traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		capacity := 1
		if i == reps-1 {
			capacity = w.capacity(seconds)
		}
		in = newInstance(capacity, false)
		err := w.setUp(in, seed)
		if err == nil && i < reps-1 {
			err = in.teardown()
		}
		if err != nil {
			_ = in.teardown()
			return result{}, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, float64(in.setupNs)/1e9)
	}
	u, checks, err := measureInstance(w, in, seconds)
	if err != nil {
		return result{}, nil, err
	}
	e, perBlock := e2e(in, u, setups)
	rec := map[string]any{
		"workload": w.name, "why": workloadWhy[w.name], "seed": seed, "seconds": seconds.Seconds(),
		"per_block": perBlock, "extra": in.extra,
	}
	if err := finite(e); err != nil {
		checks = append(checks, err.Error())
	}
	res := result{Attempted: u.frames(), Failed: u.failed}
	// Open-loop honesty: the generator kept its schedule for a frame if
	// it handed the frame over within the bound's share of the frame's
	// time budget, the larger of the inter-frame period and the median
	// latency, after its due time. More than maxLateShare of frames
	// outside that invalidate the run.
	budget := max(w.period(), e["latency_p50_ms"]*1e6)
	limit := boundOf("latency_p50_ms") * budget
	late := 0
	for _, g := range u.genLate {
		if g > limit {
			late++
		}
	}
	rec["gen_late_frames"] = late
	fmt.Fprintf(os.Stderr, "d3bench: generator: %d of %d frames late by more than %.3f ms; p99 %.3f ms\n",
		late, len(u.genLate), limit/1e6, quantile(sortedCopy(u.genLate), 0.99)/1e6)
	if float64(late) > maxLateShare*float64(len(u.genLate)) {
		checks = append(checks, fmt.Sprintf("generator fell behind: %d of %d frames handed over more than %.3f ms late", late, len(u.genLate), limit/1e6))
	}
	for _, b := range u.blocks {
		if n := int(b.hi - b.lo + 1); !supports(n, 50) {
			checks = append(checks, fmt.Sprintf("a block of %d frames: the median needs at least 20", n))
		}
	}
	metrics := e
	if traced {
		leftU := goroutinesAbove(base)
		tin := newInstance(w.capacity(seconds), true)
		if err := w.setUp(tin, seed); err != nil {
			_ = tin.teardown()
			return result{}, nil, fmt.Errorf("traced set-up: %w", err)
		}
		t, tchecks, err := measureInstance(w, tin, seconds)
		if err != nil {
			return result{}, nil, err
		}
		checks = append(checks, tchecks...)
		metrics = perLayer(in, u, tin, t, leftU, e["latency_p50_ms"], median(perBlock["latency_p90_ms"]))
		trees, broken := buildTrees(tin, t)
		if c := brokenCheck(broken, t.frames()); c != "" {
			checks = append(checks, c)
		}
		metrics["harness.unattributed_us_p50"] = unattributedP50(trees)
		if path, err := writeSpans(filepath.Join(outRoot, "spans"), fmt.Sprintf("%s-seed%d.jsonl", w.name, seed), trees); err != nil {
			checks = append(checks, "spans not written: "+err.Error())
		} else {
			rec["spans"] = path
		}
		res.Attempted += t.frames()
		res.Failed += t.failed
	} else {
		rec["goroutines_after_teardown"] = goroutinesAbove(base)
	}
	res.Correct = len(checks) == 0 && res.Failed == 0
	rec["checks"] = checks
	rec["metrics"] = metrics
	res.Metrics = withUnits(metrics, traced)
	for _, c := range checks {
		fmt.Fprintf(os.Stderr, "d3bench: check failed: %s\n", c)
	}
	printHuman(w.name, res, u)
	return res, rec, nil
}

// measureInstance warms an instance up, measures one window, runs the
// output and topology checks, and tears the instance down.
func measureInstance(w *workload, in *instance, seconds time.Duration) (*window, []string, error) {
	var checks []string
	if err := w.warmUp(in); err != nil {
		_ = in.teardown()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	win, err := w.measure(in, seconds)
	if err != nil {
		_ = in.teardown()
		return nil, nil, fmt.Errorf("measure: %w", err)
	}
	if err := in.sys.verify(); err != nil {
		checks = append(checks, err.Error())
	}
	c := win.c1
	if c.sent.Gob != 0 || c.recv.Gob != 0 {
		checks = append(checks, fmt.Sprintf("gob frames on the data plane: sent %d received %d", c.sent.Gob, c.recv.Gob))
	}
	if c.leaderEvents != 0 {
		checks = append(checks, fmt.Sprintf("leader recorded %d membership events", c.leaderEvents))
	}
	if w.rateHz > 0 && c.stale != win.c0.stale {
		checks = append(checks, fmt.Sprintf("%d stale drops outside a burst", c.stale-win.c0.stale))
	}
	if win.failed > 0 {
		checks = append(checks, fmt.Sprintf("%d of %d frames failed (%d wrong outputs, %d inject errors)", win.failed, win.frames(), win.badFrames, win.injectErrs))
	}
	if len(in.badPaths) > 0 {
		checks = append(checks, fmt.Sprintf("consumer CRC mismatches: %v", in.badPaths))
	}
	if err := in.teardown(); err != nil {
		fail(err)
	}
	return win, checks, nil
}

// maxDisorderShare is the share of traced frames whose chain may be out of
// order beyond tapSkew: a tap goroutine the hypervisor or the Go
// scheduler holds off for milliseconds inverts a frame's instants now and
// then; a tap that records wrong instants does so on most frames.
const maxDisorderShare = 0.01

// brokenCheck judges the traced frames whose span chain could not be
// built: any frame missing a tap fails the run, and frames out of order
// beyond tapSkew fail it once they exceed maxDisorderShare of n.
func brokenCheck(broken []error, n int) string {
	var noTap, disorder []error
	for _, err := range broken {
		if errors.Is(err, errNoTap) {
			noTap = append(noTap, err)
		} else {
			disorder = append(disorder, err)
		}
	}
	switch {
	case len(noTap) > 0:
		return fmt.Sprintf("%d of %d traced frames miss a tap (first: %v)", len(noTap), n, noTap[0])
	case float64(len(disorder)) > maxDisorderShare*float64(n):
		return fmt.Sprintf("%d of %d traced frames have taps out of order (first: %v)", len(disorder), n, disorder[0])
	}
	return ""
}

// withUnits shapes the metrics for the result line: every end-to-end
// metric, or with trace every per-layer metric, with its unit.
func withUnits(m map[string]float64, traced bool) map[string]map[string]any {
	specs := endToEnd
	if traced {
		specs = perLayerSpec()
	}
	out := make(map[string]map[string]any, len(specs))
	for _, s := range specs {
		out[s.Name] = map[string]any{"value": m[s.Name], "unit": s.Unit}
	}
	return out
}

func printHuman(name string, res result, u *window) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "d3bench: %s: %d frames measured, %d attempted, %d failed, correct=%v\n",
		name, u.frames(), res.Attempted, res.Failed, res.Correct)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-44s %14.6g %s\n", k, res.Metrics[k]["value"], res.Metrics[k]["unit"])
	}
}

func printSpec() {
	ws := make([]map[string]string, 0, len(workloads))
	for _, w := range workloads {
		ws = append(ws, map[string]string{"name": w.name, "why": workloadWhy[w.name]})
	}
	b, _ := json.MarshalIndent(map[string]any{
		"workloads": ws, "end_to_end": endToEnd, "per_layer": perLayerSpec(),
	}, "", "  ")
	fmt.Println(string(b))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
