// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in one process as a closed loop (one client, one op at a time),
// checks every op's output against an independent reference, and prints
// the metrics as the last line of standard output:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (starting sizes were shrunk where noted so one op takes a few
// seconds on a 2-core host):
//
//   - synth-fourindex: synthesizes the four-index transform for
//     (N,V) = (140,120) at 1, 2 and 4 GB and (190,180) at 1, 2, 4 and 8 GB
//     and dry-runs each plan on a cost-only simulator — the paper's Tables
//     2 and 3. The solver does most of the work and no data moves.
//   - gemm-file: C = A × B, 480³ at a 5 MB memory limit, on a FileStore,
//     serial engine; one op is the contraction plus the Sync that makes C
//     durable. The compute interpreter does most of the work.
//   - fourindex-ring: the five-operand four-index transform, n=26, v=22 at
//     4 MB (shrunk from n=32, v=28 at 6 MB), on an 8-shard ring with 2
//     replicas and the health plane on, pipelined engine.
//
// Every op's output is checked outside the timing window: plans must
// pass the static verifier (verify.Check) and run out of core; data
// outputs must match a reference computed once by the tensor package; dry
// runs must match the plan's predicted I/O seconds up to partial-tile
// padding. A failed check counts the op as failed.
//
// Wall-clock metrics are reference-calibrated seconds: raw seconds ×
// R_nominal ÷ R_measured, where R_measured is the mean of two timings of
// the fixed loop refWork taken right before and right after the timed
// region; every timed region follows a runtime.GC(). Raw seconds and
// every reference timing are written to
// <work>/<workload>-seed<n>-trace<t>.json, so the correction can be
// checked.
//
// Solver and engine parallelism are pinned (Workers=1, one solver lane),
// so every count the benchmark reports repeats exactly from op to op; a
// run whose counts differ between ops fails. With --trace 1 the run
// alternates public-API ops with ops that call each layer directly
// (expr → loops → tiling → placement → nlp → dcs → codegen → exec) under
// a timing decorator on the backend, checks that both give the same plans,
// I/O statistics, evaluation counts and output bytes, and reports
// per-layer metrics; the spans go to <work>/<workload>-seed<n>.spans.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/machine"
)

const (
	setupReps = 3 // set-ups per run; setup_s is their median
	minOps    = 3 // timed ops per run at least, whatever --seconds says

	gemmN     = 480
	gemmMemMB = 5
	ringN     = 26
	ringV     = 22
	ringMemMB = 4
)

var (
	// synthScenarios are (N, V, memory limit in GB). (140, 120) at 8 GB is
	// left out: every array fits and the plan runs in core.
	synthScenarios = [][3]int64{
		{140, 120, 1}, {140, 120, 2}, {140, 120, 4},
		{190, 180, 1}, {190, 180, 2}, {190, 180, 4}, {190, 180, 8},
	}
	workloads = []string{"synth-fourindex", "gemm-file", "fourindex-ring"}
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var trace int
	fl.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fl.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs and of the solver")
	fl.IntVar(&o.seconds, "seconds", 20, "measuring time in seconds")
	fl.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fl.StringVar(&o.work, "work", ".bench_build/perfbench/work", "directory for backend files and run records")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	o.trace = trace == 1
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w, oracle, err := newWorkload(o.workload, o.seed, o.work)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// One client, one op at a time, with the runtime using every core: the
	// collector's background workers run beside the op as they would for
	// a user.
	runtime.GOMAXPROCS(runtime.NumCPU())
	r := &runner{opt: o, w: w, stdout: stdout, stderr: stderr}
	initRef()
	if err := oracle(); err != nil {
		fmt.Fprintln(stderr, "perfbench: reference:", err)
		return 1
	}
	res, err := r.execute()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// newWorkload builds the named workload from the seed and returns it with
// the function that computes its output reference (run once, before and
// outside set-up timing).
func newWorkload(name string, seed int64, work string) (workload, func() error, error) {
	switch name {
	case "synth-fourindex":
		return newSynth(seed, synthScenarios), func() error { return nil }, nil
	case "gemm-file":
		cfg := machine.OSCItanium2()
		cfg.MemoryLimit = gemmMemMB * machine.MB
		w := newGEMM(seed, gemmN, cfg, work)
		return w, func() error { w.ref = gemmReference(w); return nil }, nil
	case "fourindex-ring":
		cfg := machine.OSCItanium2()
		cfg.MemoryLimit = ringMemMB * machine.MB
		w := newRingFourIndex(seed, ringN, ringV, cfg)
		return w, func() error {
			ref, err := fourIndexReference(w)
			w.ref = ref
			return err
		}, nil
	}
	return nil, nil, fmt.Errorf("perfbench: unknown workload %q (want one of %s)", name, strings.Join(workloads, ", "))
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one timed region and what its op produced.
type sample struct {
	Op        int     `json:"op"`
	Traced    bool    `json:"traced,omitempty"`
	Raw       float64 `json:"raw_s"`
	RefBefore float64 `json:"ref_before_s"`
	RefAfter  float64 `json:"ref_after_s"`
	Cal       float64 `json:"cal_s"`
	StageS    float64 `json:"stage_s,omitempty"`
	CheckS    float64 `json:"check_s"`
	AllocB    uint64  `json:"alloc_b"`
	GCs       uint32  `json:"gcs"`
	PauseNs   uint64  `json:"gc_pause_ns"`
	// Counts of the op's output (see inspect).
	Modelled  float64 `json:"modelled_io_s"`
	IOvsBound float64 `json:"io_vs_bound"`
	Evals     int64   `json:"evals"`
	MACs      float64 `json:"macs"`
	Blocks    float64 `json:"compute_blocks"`
	counts    string
	out       *opOut
}

type runner struct {
	opt            options
	w              workload
	stdout, stderr io.Writer
	tally          tally
	tr             *tracer
	base           sample // the run's first timed untraced op, output kept
	guardErr       error
	refMedian      float64 // median reference timing of the run
}

// measure times one op (prepare is timed with it when withPrepare is
// set, as in set-up) between two reference timings, then collects and
// checks its output outside the timing and allocation window.
func (r *runner) measure(opID int, withPrepare, traced bool) (sample, error) {
	s := sample{Op: opID, Traced: traced}
	var tr *tracer
	if traced {
		tr = r.tr
	}
	if !withPrepare {
		if err := r.w.prepare(); err != nil {
			return s, errors.Join(err, r.w.release())
		}
	}
	s.RefBefore = timeRef()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var err error
	if withPrepare {
		err = r.w.prepare()
		s.StageS = time.Since(t0).Seconds()
	}
	if err == nil {
		if tr != nil {
			root := tr.begin("op", opID, -1)
			s.out, err = r.w.run(tr, opID)
			tr.end(root)
		} else {
			s.out, err = r.w.run(nil, opID)
		}
	}
	s.Raw = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	s.AllocB = m1.TotalAlloc - m0.TotalAlloc
	s.GCs = m1.NumGC - m0.NumGC
	s.PauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	s.RefAfter = timeRef()
	s.Cal = calibrate(s.Raw, (s.RefBefore+s.RefAfter)/2)
	if err == nil {
		c0 := time.Now()
		s.out.verifyPlans(tr, opID)
		if err = r.w.collect(s.out); err == nil {
			err = r.w.check(s.out)
		}
		s.CheckS = time.Since(c0).Seconds()
	}
	if rerr := r.w.release(); rerr != nil {
		return s, fmt.Errorf("perfbench: release backend: %w", rerr)
	}
	r.tally.record(err)
	if err != nil {
		fmt.Fprintf(r.stderr, "perfbench: op %d failed: %v\n", opID, err)
	}
	if s.out != nil {
		r.inspect(&s)
	}
	return s, nil
}

// allocSlack is how far heap bytes allocated may differ between identical
// ops: the Go runtime's own bookkeeping moves a few hundred bytes from op
// to op, while a change in the work done moves megabytes.
const allocSlack = 64 << 10

// inspect derives the op's counts, applies the determinism guard and the
// traced-vs-untraced comparison against the run's first timed untraced
// op, and then drops the output, so the heap the program runs against is
// the same size for every op.
//
// The counts that must repeat exactly on every op, traced or not, are the
// I/O statistics (ops, bytes, modelled seconds), the bound ratio, solver
// evaluations, compute blocks, the plan text and the output bytes; heap
// bytes allocated by untraced ops must agree within allocSlack.
func (r *runner) inspect(s *sample) {
	o := s.out
	st := o.stats()
	s.Modelled, s.IOvsBound, s.Evals = st.Time(), o.ioVsBound(), o.evals
	for _, p := range o.plans {
		m, b := planWork(p)
		s.MACs, s.Blocks = s.MACs+m, s.Blocks+b
	}
	s.counts = fmt.Sprintf("stats=%+v modelled=%v io_vs_bound=%v evals=%d blocks=%v",
		st, s.Modelled, s.IOvsBound, s.Evals, s.Blocks)
	if s.Op < 0 {
		s.out = nil // set-up ops include the process's first calls
		return
	}
	if r.base.out == nil {
		r.base = *s
		s.out = nil
		return
	}
	s.out = nil
	base := r.base
	var err error
	switch {
	case s.counts != base.counts:
		err = fmt.Errorf("perfbench: determinism guard: op %d counts differ from op %d:\n  %s\n  %s", s.Op, base.Op, s.counts, base.counts)
	case !s.Traced && (s.AllocB > base.AllocB+allocSlack || base.AllocB > s.AllocB+allocSlack):
		err = fmt.Errorf("perfbench: determinism guard: op %d allocated %d B, op %d %d B", s.Op, s.AllocB, base.Op, base.AllocB)
	case o.planText() != base.out.planText():
		err = fmt.Errorf("perfbench: op %d: plan text differs from op %d", s.Op, base.Op)
	case !sameBits(o.out, base.out.out):
		err = fmt.Errorf("perfbench: op %d: output bytes differ from op %d", s.Op, base.Op)
	}
	if err != nil && r.guardErr == nil {
		r.guardErr = err
	}
}

func (r *runner) execute() (*result, error) {
	o := r.opt
	fmt.Fprintf(r.stdout, "perfbench workload=%s seed=%d seconds=%d trace=%v gomaxprocs=%d R_nominal=%gs\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), refNominalSeconds)
	var setups, ops []sample
	nSetup := setupReps
	if o.trace {
		r.tr = newTracer()
		nSetup = 1
	}
	for i := 0; i < nSetup; i++ {
		s, err := r.measure(-1-i, true, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	start := time.Now()
	for id := 0; len(ops) < minOps*(1+btoi(o.trace)) || time.Since(start).Seconds() < float64(o.seconds); id++ {
		traced := o.trace && id%2 == 1
		s, err := r.measure(id, false, traced)
		if err != nil {
			return nil, err
		}
		ops = append(ops, s)
	}
	return r.finish(setups, ops)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// finish reports the metrics and writes the run record.
func (r *runner) finish(setups, ops []sample) (*result, error) {
	var refs []float64
	for _, s := range append(append([]sample{}, setups...), ops...) {
		refs = append(refs, s.RefBefore, s.RefAfter)
	}
	r.refMedian = summarize(refs).Median
	fmt.Fprintf(r.stdout, "reference: median timing %.6gs over %d timings, R_nominal=%gs\n", r.refMedian, len(refs), refNominalSeconds)
	var untraced, traced []sample
	for _, s := range ops {
		if s.counts == "" {
			continue // the op returned an error
		}
		if s.Traced {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	ms := newMetricSet()
	var err error
	if r.opt.trace {
		err = r.layerMetrics(ms, setups, untraced, traced)
	} else {
		err = r.endToEndMetrics(ms, setups, untraced)
	}
	if err != nil {
		return nil, err
	}
	if r.guardErr != nil {
		fmt.Fprintln(r.stderr, r.guardErr)
	}
	res := &result{
		Correct:   r.guardErr == nil && r.tally.failed == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   ms.m,
	}
	fmt.Fprintf(r.stdout, "ops attempted=%d failed=%d fail_frac=%g\n", r.tally.attempted, r.tally.failed, r.tally.failFrac())
	for _, name := range ms.order {
		m := ms.m[name]
		fmt.Fprintf(r.stdout, "  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	return res, r.writeRecord(setups, ops)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func field(xs []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(xs))
	for i, s := range xs {
		out[i] = f(s)
	}
	return out
}

// endToEndMetrics reports the untraced run's metrics.
func (r *runner) endToEndMetrics(ms *metricSet, setups, ops []sample) error {
	opS := summarize(field(ops, func(s sample) float64 { return s.Cal }))
	setupS := summarize(field(setups, func(s sample) float64 { return s.Cal }))
	raw := summarize(field(ops, func(s sample) float64 { return s.Raw }))
	fmt.Fprintf(r.stdout, "op seconds: calibrated %v, raw %v; setup seconds: calibrated %v\n", opS, raw, setupS)
	return errors.Join(
		ms.add("op_s_p50", opS.Median, "s"),
		ms.add("setup_s", setupS.Median, "s"),
		ms.add("modelled_io_s", r.base.Modelled, "model_s"),
		ms.add("io_vs_bound", r.base.IOvsBound, "ratio"),
		ms.add("alloc_mb_per_op", float64(r.base.AllocB)/1e6, "MB"),
		ms.add("ok_frac", 1-r.tally.failFrac(), "ratio"),
	)
}

// layerMetrics reports the traced run's per-layer metrics: medians over
// the traced ops of each layer's calibrated seconds and counts.
func (r *runner) layerMetrics(ms *metricSet, setups, untraced, traced []sample) error {
	per := map[string][]float64{}
	for _, s := range traced {
		k := s.Cal / s.Raw // the op's calibration factor
		lt := layerTimes(r.tr.opSpans(s.Op))
		counts := r.tr.opCounts(s.Op)
		var macs, blocks float64
		if _, data := r.w.(*dataWorkload); data {
			macs, blocks = s.MACs, s.Blocks // dry runs compute nothing
		}
		evals := float64(s.Evals)
		execAlloc := counts["exec.alloc_b"]
		v := map[string]float64{
			"dcs.solve_s":            k * lt["dcs.solve"],
			"dcs.evals":              evals,
			"dcs.ns_per_eval":        1e9 * k * lt["dcs.solve"] / evals,
			"dcs.alloc_b_per_eval":   counts["dcs.alloc_b"] / evals,
			"placement.enumerate_s":  k * lt["placement.enumerate"],
			"placement.candidates":   counts["placement.candidates"],
			"tiling.tile_s":          k * lt["tiling.tile"],
			"nlp.build_s":            k * lt["nlp.build"],
			"codegen.generate_s":     k * lt["codegen.generate"],
			"verify.check_s":         k * lt["verify.check"],
			"expr.parse_s":           k * lt["expr.parse"],
			"expr.minimize_s":        k * lt["expr.minimize"],
			"loops.fuse_s":           k * lt["loops.fuse"],
			"exec.run_s":             k * lt["exec.run"],
			"exec.self_s":            k * lt["exec.run.self"],
			"exec.dryrun_s":          k * lt["exec.dryrun"],
			"exec.alloc_mb":          execAlloc / 1e6,
			"exec.macs":              macs,
			"exec.compute_blocks":    blocks,
			"exec.macs_per_block":    ratioOr0(macs, blocks),
			"exec.alloc_b_per_block": ratioOr0(execAlloc, blocks),
			"exec.mmacs_per_s":       ratioOr0(macs/1e6, k*lt["exec.run.self"]),
			"disk.read_s":            k * lt["disk.read"],
			"disk.write_s":           k * lt["disk.write"],
			"disk.sync_s":            k * lt["disk.sync"],
			"ring.read_s":            k * lt["ring.read"],
			"ring.write_s":           k * lt["ring.write"],
		}
		for _, name := range []string{"ring.shard_ops", "ring.fanout", "ring.shard_skew", "ring.hedges_issued", "ring.failovers"} {
			v[name] = counts[name]
		}
		for name, val := range ioCounts(r.tr.opSpans(s.Op)) {
			v[name] = val
		}
		for name, val := range v {
			per[name] = append(per[name], val)
		}
	}
	stage := summarize(field(setups, func(s sample) float64 { return s.StageS * s.Cal / s.Raw }))
	rawUn := summarize(field(untraced, func(s sample) float64 { return s.Raw }))
	rawTr := summarize(field(traced, func(s sample) float64 { return s.Raw }))
	fixed := []struct {
		name, unit string
		value      float64
	}{
		{"disk.stage_s", "s", stage.Median},
		{"runtime.gc_per_op", "count", summarize(field(untraced, func(s sample) float64 { return float64(s.GCs) })).Median},
		{"runtime.gc_pause_ms_per_op", "ms", summarize(field(untraced, func(s sample) float64 { return float64(s.PauseNs) / 1e6 })).Median},
		{"bench.raw_op_s_p50", "s", rawUn.Median},
		{"bench.ref_s", "s", r.refMedian},
		{"bench.trace_overhead", "ratio", ratioOr0(rawTr.Median, rawUn.Median)},
		{"bench.check_s", "s", summarize(field(untraced, func(s sample) float64 { return s.CheckS })).Median},
		{"bench.ops", "count", float64(len(traced))},
	}
	var errs []error
	for _, f := range fixed {
		errs = append(errs, ms.add(f.name, f.value, f.unit))
	}
	for _, name := range layerMetricNames {
		errs = append(errs, ms.add(name.name, summarize(per[name.name]).Median, name.unit))
	}
	return errors.Join(errs...)
}

// layerMetricNames lists the per-op layer metrics with their units, in
// report order.
var layerMetricNames = []struct{ name, unit string }{
	{"dcs.solve_s", "s"}, {"dcs.evals", "count"}, {"dcs.ns_per_eval", "ns"}, {"dcs.alloc_b_per_eval", "B"},
	{"placement.enumerate_s", "s"}, {"placement.candidates", "count"},
	{"tiling.tile_s", "s"}, {"nlp.build_s", "s"}, {"codegen.generate_s", "s"}, {"verify.check_s", "s"},
	{"expr.parse_s", "s"}, {"expr.minimize_s", "s"}, {"loops.fuse_s", "s"},
	{"exec.run_s", "s"}, {"exec.self_s", "s"}, {"exec.dryrun_s", "s"}, {"exec.alloc_mb", "MB"},
	{"exec.macs", "count"}, {"exec.compute_blocks", "count"}, {"exec.macs_per_block", "count"},
	{"exec.alloc_b_per_block", "B"}, {"exec.mmacs_per_s", "Mmac/s"},
	{"disk.read_ops", "count"}, {"disk.write_ops", "count"}, {"disk.read_mb", "MB"}, {"disk.write_mb", "MB"},
	{"disk.read_s", "s"}, {"disk.write_s", "s"}, {"disk.sync_s", "s"},
	{"ring.front_ops", "count"}, {"ring.shard_ops", "count"}, {"ring.fanout", "ratio"}, {"ring.shard_skew", "ratio"},
	{"ring.hedges_issued", "count"}, {"ring.failovers", "count"}, {"ring.read_s", "s"}, {"ring.write_s", "s"},
}

func ratioOr0(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ioCounts counts the decorator's section calls and bytes per backend
// kind: disk.* for a FileStore, ring.front_ops for the ring's front door.
func ioCounts(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		switch s.Name {
		case "disk.read":
			out["disk.read_ops"]++
			out["disk.read_mb"] += float64(s.Bytes) / 1e6
		case "disk.write":
			out["disk.write_ops"]++
			out["disk.write_mb"] += float64(s.Bytes) / 1e6
		case "ring.read", "ring.write":
			out["ring.front_ops"]++
		}
	}
	return out
}

// writeRecord writes the run's raw timings, reference timings and (traced
// runs) spans next to the build.
func (r *runner) writeRecord(setups, ops []sample) error {
	base := filepath.Join(r.opt.work, fmt.Sprintf("%s-seed%d", r.opt.workload, r.opt.seed))
	rec := struct {
		Workload  string   `json:"workload"`
		Seed      int64    `json:"seed"`
		RNominalS float64  `json:"r_nominal_s"`
		RMedianS  float64  `json:"r_median_s"`
		Setups    []sample `json:"setups"`
		Ops       []sample `json:"ops"`
	}{r.opt.workload, r.opt.seed, refNominalSeconds, r.refMedian, setups, ops}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(fmt.Sprintf("%s-trace%d.json", base, btoi(r.opt.trace)), data, 0o644); err != nil {
		return fmt.Errorf("perfbench: write run record: %w", err)
	}
	if r.tr == nil {
		return nil
	}
	f, err := os.Create(base + ".spans.json")
	if err != nil {
		return fmt.Errorf("perfbench: write spans: %w", err)
	}
	if err := r.tr.writeJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("perfbench: write spans: %w", err)
	}
	return f.Close()
}
