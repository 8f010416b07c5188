package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/health"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/ooc"
	"repro/internal/placement"
	"repro/internal/ring"
	"repro/internal/tensor"
	"repro/internal/verify"
)

// workload is one benchmark workload. Every op starts from a freshly
// prepared backend holding only the seeded inputs, so ops are identical.
type workload interface {
	// prepare creates the backend and stages the seeded inputs through the
	// program's API. It is timed as part of set-up and repeated, untimed,
	// before every measured op.
	prepare() error
	// run executes one op: through the public API when tr is nil, layer by
	// layer with spans recorded into tr otherwise.
	run(tr *tracer, opID int) (*opOut, error)
	// collect reads the op's output back (outside the timing window).
	collect(o *opOut) error
	// check compares the op's output with the independent reference.
	check(o *opOut) error
	// release closes the backend and removes its files.
	release() error
}

// opOut is what one op produced: what the output check, the determinism
// guard, and the traced-vs-untraced comparison look at.
type opOut struct {
	plans   []*codegen.Plan
	models  []*placement.Model
	reports []*verify.Report
	perPlan []disk.Stats // one per executed plan
	evals   int64
	out     []float64 // output array contents (data workloads)
}

func (o *opOut) add(s *core.Synthesis, st disk.Stats) {
	o.plans = append(o.plans, s.Plan)
	o.models = append(o.models, s.Model)
	o.perPlan = append(o.perPlan, st)
	o.evals += s.SolverEvals
}

// verifyPlans runs the static plan verifier over every plan of the op (a
// span per call when traced). Verification is part of the output check,
// not of the op: core and ooc skip it by default, and its cost depends on
// the plan the seed leads to.
func (o *opOut) verifyPlans(tr *tracer, op int) {
	o.reports = o.reports[:0]
	for _, p := range o.plans {
		if tr == nil {
			o.reports = append(o.reports, verify.Check(p))
			continue
		}
		id := tr.begin("verify.check", op, tr.root(op))
		o.reports = append(o.reports, verify.Check(p))
		tr.end(id)
	}
}

// verified reports the first verifier finding of the op, if any.
func (o *opOut) verified() error {
	if len(o.reports) != len(o.plans) {
		return fmt.Errorf("perfbench: %d of %d plans verified", len(o.reports), len(o.plans))
	}
	for i, r := range o.reports {
		if err := r.Err(); err != nil {
			return fmt.Errorf("perfbench: plan %d: %w", i, err)
		}
	}
	return nil
}

// stats sums the I/O statistics of the op's executions.
func (o *opOut) stats() disk.Stats {
	var total disk.Stats
	for _, st := range o.perPlan {
		total.Add(st)
	}
	return total
}

// planText renders every plan of the op.
func (o *opOut) planText() string {
	var b strings.Builder
	for _, p := range o.plans {
		b.WriteString(p.String())
	}
	return b.String()
}

// ioBoundSeconds is the communication lower bound of a synthesized
// program: for each array occurrence, the smallest analytic lower bound
// (placement.Candidate.LowerBoundSeconds) among its candidate placements,
// summed over occurrences. No tile assignment of any candidate can
// beat it.
func ioBoundSeconds(m *placement.Model) float64 {
	total := 0.0
	for _, ch := range m.Choices {
		best := math.Inf(1)
		for i := range ch.Candidates {
			best = min(best, ch.Candidates[i].LowerBoundSeconds(m.Prog.Ranges, m.Cfg))
		}
		total += best
	}
	return total
}

// ioVsBound is the op's modelled I/O seconds over the sum of its programs'
// communication lower bounds.
func (o *opOut) ioVsBound() float64 {
	bound := 0.0
	for _, m := range o.models {
		bound += ioBoundSeconds(m)
	}
	return o.stats().Time() / bound
}

// planWork counts the multiply-adds and intra-tile compute blocks a plan
// executes: a compute block runs once per iteration of its enclosing tiling
// loops, and over all iterations each intra-tile index of a tiled loop
// covers its full range.
func planWork(p *codegen.Plan) (macs, blocks float64) {
	var walk func(nodes []codegen.Node, enclosing []*codegen.Loop)
	walk = func(nodes []codegen.Node, enclosing []*codegen.Loop) {
		for _, n := range nodes {
			switch n := n.(type) {
			case *codegen.Loop:
				walk(n.Body, append(enclosing[:len(enclosing):len(enclosing)], n))
			case *codegen.Compute:
				nb, nm := 1.0, 1.0
				tiled := map[string]bool{}
				for _, l := range enclosing {
					trips := math.Ceil(float64(l.Range) / float64(l.Tile))
					nb *= trips
					if containsIndex(n.Intra, l.Index) {
						nm *= float64(l.Range)
						tiled[l.Index] = true
					} else {
						nm *= trips
					}
				}
				for _, x := range n.Intra {
					if !tiled[x] {
						nm *= float64(min(p.Tiles[x], p.Prog.Ranges[x]))
					}
				}
				blocks += nb
				macs += nm
			}
		}
	}
	walk(p.Body, nil)
	return macs, blocks
}

func containsIndex(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// genData returns n uniform values in [-1, 1) drawn from a stream named
// by the benchmark seed and the array name: the same seed gives the same
// bytes, another seed other bytes.
func genData(seed int64, array string, n int64) []float64 {
	h := int64(1469598103934665603)
	for _, c := range array {
		h = (h ^ int64(c)) * 1099511628211
	}
	rng := rand.New(rand.NewSource(seed*0x5DEECE66D ^ h))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()*2 - 1
	}
	return out
}

// stage creates an array on the backend and writes data into it.
func stage(be disk.Backend, name string, dims []int64, data []float64) error {
	arr, err := be.Create(name, dims)
	if err != nil {
		return fmt.Errorf("perfbench: stage %s: %w", name, err)
	}
	if err := arr.WriteSection(make([]int64, len(dims)), dims, data); err != nil {
		return fmt.Errorf("perfbench: stage %s: %w", name, err)
	}
	return nil
}

// readAll reads a whole array from the backend.
func readAll(be disk.Backend, name string) ([]float64, error) {
	arr, err := be.Open(name)
	if err != nil {
		return nil, fmt.Errorf("perfbench: read %s: %w", name, err)
	}
	dims := arr.Dims()
	n := int64(1)
	for _, d := range dims {
		n *= d
	}
	buf := make([]float64, n)
	if err := arr.ReadSection(make([]int64, len(dims)), dims, buf); err != nil {
		return nil, fmt.Errorf("perfbench: read %s: %w", name, err)
	}
	return buf, nil
}

// checkClose compares an output with its reference within a tolerance
// scaled to the reference's magnitude (the plans accumulate in another
// order than the reference does).
func checkClose(got []float64, want *tensor.Tensor) error {
	ref := want.Data()
	if len(got) != len(ref) {
		return fmt.Errorf("perfbench: output has %d elements, reference %d", len(got), len(ref))
	}
	scale := 1.0
	for _, v := range ref {
		scale = max(scale, math.Abs(v))
	}
	tol := 1e-9 * scale
	for i := range ref {
		if d := math.Abs(got[i] - ref[i]); !(d <= tol) {
			return fmt.Errorf("perfbench: output[%d] = %v, reference %v (|diff| %g > %g)", i, got[i], ref[i], d, tol)
		}
	}
	return nil
}

// outOfCore checks that a synthesized plan really runs out of core: its
// arrays together exceed the memory limit and its buffers do not hold
// them all.
func outOfCore(p *codegen.Plan) error {
	total := int64(0)
	for _, a := range p.Prog.Arrays {
		total += p.Prog.Size(a.Name) * p.Prog.ElemSize
	}
	if total <= p.Cfg.MemoryLimit || p.MemoryBytes() >= total {
		return fmt.Errorf("perfbench: %s at memory limit %d is in core (arrays %d B, buffers %d B)",
			p.Prog.Name, p.Cfg.MemoryLimit, total, p.MemoryBytes())
	}
	return nil
}

// ---------------------------------------------------------------------------
// synth-fourindex

type synthScenario struct {
	prog *loops.Program
	cfg  machine.Config
}

// synthWorkload synthesizes the four-index transform for the paper's
// Table 2/3 scenarios and dry-runs each plan on a cost-only simulator.
type synthWorkload struct {
	seed      int64
	scenarios []synthScenario
}

// newSynth builds the workload from (N, V, memory limit in GB) triples.
func newSynth(seed int64, scenarios [][3]int64) *synthWorkload {
	w := &synthWorkload{seed: seed}
	for _, sc := range scenarios {
		cfg := machine.OSCItanium2()
		cfg.MemoryLimit = sc[2] * machine.GB
		w.scenarios = append(w.scenarios, synthScenario{prog: loops.FourIndexAbstract(sc[0], sc[1]), cfg: cfg})
	}
	return w
}

func (w *synthWorkload) prepare() error       { return nil }
func (w *synthWorkload) release() error       { return nil }
func (w *synthWorkload) collect(*opOut) error { return nil }

func (w *synthWorkload) run(tr *tracer, opID int) (*opOut, error) {
	o := &opOut{}
	for _, sc := range w.scenarios {
		var s *core.Synthesis
		var err error
		if tr == nil {
			s, err = core.SynthesizeOpts(context.Background(), sc.prog,
				core.WithMachine(sc.cfg), core.WithStrategy(core.DCS), core.WithSeed(w.seed))
		} else {
			s, err = tr.synthesize(opID, tr.root(opID), sc.prog, sc.cfg, w.seed)
		}
		if err != nil {
			return nil, err
		}
		be := disk.NewSim(sc.cfg.Disk, false)
		var res *exec.Result
		if tr == nil {
			res, err = exec.Run(s.Plan, be, nil, exec.Options{DryRun: true})
		} else {
			id := tr.begin("exec.dryrun", opID, tr.root(opID))
			res, err = exec.Run(s.Plan, be, nil, exec.Options{DryRun: true})
			tr.end(id)
		}
		if cerr := be.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("perfbench: dry run: %w", err)
		}
		o.add(s, res.Stats)
	}
	return o, nil
}

// check requires a clean verifier report and an out-of-core plan for
// every scenario, and dry-run seconds that match the plan's prediction up
// to partial-tile padding: the model charges every tile at full extent,
// so the simulator may undercut the prediction by at most the padding
// factor Π ⌈N/T⌉·T/N over the tiling loops, and may never exceed it.
func (w *synthWorkload) check(o *opOut) error {
	if err := o.verified(); err != nil {
		return err
	}
	for i, p := range o.plans {
		if err := outOfCore(p); err != nil {
			return err
		}
		pad := 1.0
		for x, t := range p.Tiles {
			n := p.Prog.Ranges[x]
			pad *= float64((n+t-1)/t*t) / float64(n)
		}
		got, pred := o.perPlan[i].Time(), p.Predicted
		if got > pred*(1+1e-9) || got < pred/pad*(1-1e-9) {
			return fmt.Errorf("perfbench: scenario %d: dry run %.6g s outside [%.6g, %.6g] of prediction", i, got, pred/pad, pred)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Data workloads: gemm-file and fourindex-ring

// dataWorkload contracts disk-resident arrays with ooc.Contract.
type dataWorkload struct {
	seed     int64
	spec     string
	output   string
	cfg      machine.Config
	pipeline bool
	inputs   map[string]*tensor.Tensor // staged in order
	order    []string
	ref      *tensor.Tensor // independent reference of the output
	// open creates an empty backend.
	open func() (disk.Backend, error)
	// cleanup removes what open left behind, after Close.
	cleanup func() error

	be disk.Backend
}

func (w *dataWorkload) prepare() error {
	be, err := w.open()
	if err != nil {
		return fmt.Errorf("perfbench: open backend: %w", err)
	}
	w.be = be
	for _, name := range w.order {
		t := w.inputs[name]
		if err := stage(be, name, toInt64(t.Dims()), t.Data()); err != nil {
			return err
		}
	}
	return disk.SyncBackend(be)
}

func (w *dataWorkload) release() error {
	if w.be == nil {
		return nil
	}
	err := w.be.Close()
	w.be = nil
	if w.cleanup != nil {
		err = errors.Join(err, w.cleanup())
	}
	return err
}

// run is one contraction plus a Sync that makes the output durable.
func (w *dataWorkload) run(tr *tracer, opID int) (*opOut, error) {
	o := &opOut{}
	if tr != nil {
		if err := tr.contract(opID, w, o); err != nil {
			return nil, err
		}
		return o, nil
	}
	res, err := ooc.Contract(w.be, w.spec, ooc.Options{Machine: w.cfg, Seed: w.seed, Workers: 1, Pipeline: w.pipeline})
	if err != nil {
		return nil, err
	}
	if err := disk.SyncBackend(w.be); err != nil {
		return nil, fmt.Errorf("perfbench: sync: %w", err)
	}
	o.add(res.Synthesis, res.Stats)
	return o, nil
}

func (w *dataWorkload) collect(o *opOut) error {
	out, err := readAll(w.be, w.output)
	o.out = out
	return err
}

func (w *dataWorkload) check(o *opOut) error {
	if err := o.verified(); err != nil {
		return err
	}
	if err := outOfCore(o.plans[0]); err != nil {
		return err
	}
	return checkClose(o.out, w.ref)
}

func toInt64(dims []int) []int64 {
	out := make([]int64, len(dims))
	for i, d := range dims {
		out[i] = int64(d)
	}
	return out
}

func newInputs(seed int64, dims map[string][]int) map[string]*tensor.Tensor {
	out := map[string]*tensor.Tensor{}
	for name, d := range dims {
		n := int64(1)
		for _, x := range d {
			n *= int64(x)
		}
		out[name] = tensor.FromData(genData(seed, name, n), d...)
	}
	return out
}

// newGEMM is C = A × B (n×n) on a FileStore in a fresh directory under
// workDir, executed by the serial engine.
func newGEMM(seed int64, n int, cfg machine.Config, workDir string) *dataWorkload {
	w := &dataWorkload{
		seed:   seed,
		spec:   "C[i__,j__] = A[i__,k__] * B[k__,j__]",
		output: "C",
		cfg:    cfg,
		order:  []string{"A", "B"},
		inputs: newInputs(seed, map[string][]int{"A": {n, n}, "B": {n, n}}),
	}
	var dir string
	w.open = func() (disk.Backend, error) {
		var err error
		if dir, err = os.MkdirTemp(workDir, "gemm-"); err != nil {
			return nil, err
		}
		return disk.NewFileStore(dir, cfg.Disk)
	}
	w.cleanup = func() error { return os.RemoveAll(dir) }
	return w
}

// gemmReference is the oracle of newGEMM: the tensor package's blocked
// matrix multiply.
func gemmReference(w *dataWorkload) *tensor.Tensor {
	a, b := w.inputs["A"], w.inputs["B"]
	c := tensor.New(a.Dims()[0], b.Dims()[1])
	tensor.MatMulAcc(c, a, b)
	return c
}

// newRingFourIndex is the five-operand four-index transform on a
// replicated sharded ring (8 shards, 2 replicas, health plane on),
// executed by the pipelined engine.
func newRingFourIndex(seed int64, n, v int, cfg machine.Config) *dataWorkload {
	w := &dataWorkload{
		seed:     seed,
		spec:     "B[a,b,c,d] = C1[s,d] * C2[r,c] * C3[q,b] * C4[p,a] * A[p,q,r,s]",
		output:   "B",
		cfg:      cfg,
		pipeline: true,
		order:    []string{"A", "C1", "C2", "C3", "C4"},
		inputs: newInputs(seed, map[string][]int{
			"A": {n, n, n, n}, "C1": {n, v}, "C2": {n, v}, "C3": {n, v}, "C4": {n, v},
		}),
	}
	w.open = func() (disk.Backend, error) {
		return ring.New(ring.Options{Shards: 8, Replicas: 2, WithData: true,
			Health: &health.Config{}, Disk: cfg.Disk, Seed: uint64(seed)})
	}
	return w
}

// fourIndexReference is the oracle of newRingFourIndex: four binary
// einsum steps in a hand-picked order (C4, C3, C2, C1), independent of
// the operation-minimized plan under test.
func fourIndexReference(w *dataWorkload) (*tensor.Tensor, error) {
	in := w.inputs
	op := func(t *tensor.Tensor, labels ...string) tensor.Operand {
		return tensor.Operand{T: t, Labels: labels}
	}
	t1, err := tensor.Einsum([]string{"a", "q", "r", "s"}, op(in["C4"], "p", "a"), op(in["A"], "p", "q", "r", "s"))
	if err != nil {
		return nil, err
	}
	t2, err := tensor.Einsum([]string{"a", "b", "r", "s"}, op(in["C3"], "q", "b"), op(t1, "a", "q", "r", "s"))
	if err != nil {
		return nil, err
	}
	t3, err := tensor.Einsum([]string{"a", "b", "c", "s"}, op(in["C2"], "r", "c"), op(t2, "a", "b", "r", "s"))
	if err != nil {
		return nil, err
	}
	return tensor.Einsum([]string{"a", "b", "c", "d"}, op(in["C1"], "s", "d"), op(t3, "a", "b", "c", "s"))
}
