package main

import (
	"context"
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
)

func TestSummarizeReportsSampleCount(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.Median != 3 || s.Tail != 0 {
		t.Fatalf("summarize(5 values) = %+v, want N=5 median=3 and no tail percentile", s)
	}
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i)
	}
	s = summarize(xs)
	if s.N != 40 || s.Tail != 75 {
		t.Fatalf("summarize(40 values) = %+v, want N=40 and p75 (10 samples beyond it)", s)
	}
	if got := summarize(nil); got.N != 0 {
		t.Fatalf("summarize(nil).N = %d", got.N)
	}
}

func TestMetricNamesValidated(t *testing.T) {
	for _, name := range []string{"op_s_p50", "dcs.ns_per_eval", "exec.macs-per.block", "9lives"} {
		if !validName(name) {
			t.Errorf("validName(%q) = false", name)
		}
	}
	for _, name := range []string{"", "_lead", ".lead", "has space", "slash/no", "ünicode", string(make([]byte, 65))} {
		if validName(name) {
			t.Errorf("validName(%q) = true", name)
		}
	}
	ms := newMetricSet()
	if err := ms.add("bad name", 1, "s"); err == nil {
		t.Error("add accepted an invalid name")
	}
	if err := ms.add("ok", 1, "no spaces"); err == nil {
		t.Error("add accepted an invalid unit")
	}
	if err := ms.add("ok", math.NaN(), "s"); err == nil {
		t.Error("add accepted NaN")
	}
	if err := ms.add("ok", 1, "s"); err != nil {
		t.Fatal(err)
	}
	if err := ms.add("ok", 2, "s"); err == nil {
		t.Error("add accepted a duplicate name")
	}
}

func TestInputsFollowSeed(t *testing.T) {
	a, b := genData(7, "A", 1000), genData(7, "A", 1000)
	if !sameBits(a, b) {
		t.Fatal("same seed gave different bytes")
	}
	if sameBits(a, genData(8, "A", 1000)) {
		t.Fatal("another seed gave the same bytes")
	}
	if sameBits(a, genData(7, "B", 1000)) {
		t.Fatal("another array gave the same bytes")
	}
	w1, w2 := newGEMM(3, 16, machine.Small(4<<10), t.TempDir()), newGEMM(3, 16, machine.Small(4<<10), t.TempDir())
	if !sameBits(w1.inputs["B"].Data(), w2.inputs["B"].Data()) {
		t.Fatal("same seed staged different inputs")
	}
}

// TestIOVsBoundSmallGEMM checks the bound against a hand computation. For
// C[i,j] = A[i,k] * B[k,j] every array must move at least once, in at
// least one operation: A and B are read (8 B × 12·9 and 9·11 elements at
// 100 MB/s), C is written (8 B × 12·11 at 80 MB/s), each with one 1 ms
// seek, on machine.Small's disk.
func TestIOVsBoundSmallGEMM(t *testing.T) {
	c := expr.MustParse("C[i,j] = A[i,k] * B[k,j]", map[string]int64{"i": 12, "j": 11, "k": 9})
	plan, err := expr.Minimize(c, "T")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := loops.FromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Small(1 << 10)
	s, err := core.SynthesizeOpts(context.Background(), prog, core.WithMachine(cfg), core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	want := 8*12*9/100e6 + 8*9*11/100e6 + 8*12*11/80e6 + 3*0.001
	if got := ioBoundSeconds(s.Model); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ioBoundSeconds = %.12g, hand-computed %.12g", got, want)
	}
	res, err := exec.Run(s.Plan, disk.NewSim(cfg.Disk, false), nil, exec.Options{DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	o := &opOut{}
	o.add(s, res.Stats)
	if got := o.ioVsBound(); math.Abs(got-res.Stats.Time()/want) > 1e-9 || got < 1 {
		t.Fatalf("ioVsBound = %g, want %g/%g ≥ 1", got, res.Stats.Time(), want)
	}
}

// corrupting flips one output element after the op, as a wrong kernel
// would.
type corrupting struct{ *dataWorkload }

func (c corrupting) collect(o *opOut) error {
	if err := c.dataWorkload.collect(o); err != nil {
		return err
	}
	o.out[len(o.out)/2] += 1e-3
	return nil
}

func TestCorruptedOutputCountsAsFailure(t *testing.T) {
	initRef()
	w := newGEMM(1, 24, machine.Small(4<<10), t.TempDir())
	w.ref = gemmReference(w)
	r := &runner{opt: options{workload: "gemm-file"}, w: w, stdout: io.Discard, stderr: io.Discard}
	if _, err := r.measure(0, false, false); err != nil {
		t.Fatal(err)
	}
	if r.tally.failed != 0 {
		t.Fatalf("clean op failed: %v", r.tally.firstErr)
	}
	r.w = corrupting{w}
	if _, err := r.measure(1, false, false); err != nil {
		t.Fatal(err)
	}
	if r.tally.attempted != 2 || r.tally.failed != 1 || r.tally.failFrac() != 0.5 {
		t.Fatalf("tally = %+v, want 1 of 2 ops failed (fail_frac 0.5)", r.tally)
	}
	if r.guardErr == nil {
		t.Fatal("corrupted output bytes passed the comparison with the first op")
	}
}

func TestCoveredUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 10}
	kids := []span{{Start: 1, End: 3}, {Start: 2, End: 4}, {Start: 6, End: 7}, {Start: 9, End: 12}}
	if got := covered(parent, kids); got != 5 {
		t.Fatalf("covered = %g, want 5 (1-4, 6-7, 9-10)", got)
	}
	lt := layerTimes([]span{{Name: "op", ID: 0, Parent: -1, Start: 0, End: 10},
		{Name: "exec", ID: 1, Parent: 0, Start: 0, End: 8},
		{Name: "disk", ID: 2, Parent: 1, Start: 1, End: 3}, {Name: "disk", ID: 3, Parent: 1, Start: 2, End: 5}})
	if lt["exec.self"] != 4 || lt["disk"] != 5 {
		t.Fatalf("layerTimes = %v, want exec.self 4 and disk 5", lt)
	}
}

func TestPlanWorkCountsGEMM(t *testing.T) {
	w := newGEMM(1, 24, machine.Small(4<<10), t.TempDir())
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	defer w.release()
	o, err := w.run(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	macs, blocks := planWork(o.plans[0])
	if macs != 24*24*24 {
		t.Fatalf("macs = %g, want 24³", macs)
	}
	tiles := o.plans[0].Tiles
	trips := 1.0
	for _, x := range []string{"i__", "j__", "k__"} {
		trips *= math.Ceil(24 / float64(tiles[x]))
	}
	if blocks != trips {
		t.Fatalf("blocks = %g, want %g for tiles %v", blocks, trips, tiles)
	}
}

// TestTracedRingMatchesUntraced runs the layer-by-layer traced op through
// the timing decorator on the pipelined ring engine, whose I/O goroutines
// record spans concurrently, and requires the same plan, counts and output
// bytes as the public-API op.
func TestTracedRingMatchesUntraced(t *testing.T) {
	initRef()
	w := newRingFourIndex(2, 8, 6, machine.Small(16<<10))
	ref, err := fourIndexReference(w)
	if err != nil {
		t.Fatal(err)
	}
	w.ref = ref
	r := &runner{opt: options{workload: "fourindex-ring", trace: true}, w: w, stdout: io.Discard, stderr: io.Discard, tr: newTracer()}
	for id, traced := range []bool{false, true} {
		if _, err := r.measure(id, false, traced); err != nil {
			t.Fatal(err)
		}
	}
	if r.tally.failed != 0 || r.guardErr != nil {
		t.Fatalf("failed %d ops (%v); guard: %v", r.tally.failed, r.tally.firstErr, r.guardErr)
	}
	lt := layerTimes(r.tr.opSpans(1))
	if lt["exec.run"] <= 0 || lt["dcs.solve"] <= 0 || lt["ring.read"] <= 0 || lt["ring.write"] <= 0 {
		t.Fatalf("traced op is missing layer spans: %v", lt)
	}
	if c := r.tr.opCounts(1); c["ring.shard_ops"] <= 0 || c["ring.fanout"] < 1 {
		t.Fatalf("ring shard counts missing: %v", c)
	}
}
