package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dcs"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/ring"
	"repro/internal/tiling"
)

// span is one traced call: a layer boundary crossed by the benchmark.
// Spans of one op share Op; Parent is -1 for an op's root span.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
	Bytes  int64   `json:"bytes,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans and per-op counts in memory; they are written out
// when the run ends. Disk spans arrive from the pipelined engine's I/O
// goroutines, hence the lock.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	roots  map[int]int
	counts map[int]map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), roots: map[int]int{}, counts: map[int]map[string]float64{}}
}

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

func (t *tracer) begin(name string, op, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: start})
	if parent < 0 {
		t.roots[op] = id
	}
	return id
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// record adds a finished span.
func (t *tracer) record(name string, op, parent int, start, end float64, bytes int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, ID: len(t.spans), Parent: parent, Start: start, End: end, Bytes: bytes})
	t.mu.Unlock()
}

// root is the id of op's root span.
func (t *tracer) root(op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.roots[op]
}

// count adds v to op's counter name.
func (t *tracer) count(op int, name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.counts[op] == nil {
		t.counts[op] = map[string]float64{}
	}
	t.counts[op][name] += v
}

// opCounts returns a copy of op's counters.
func (t *tracer) opCounts(op int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	for k, v := range t.counts[op] {
		out[k] = v
	}
	return out
}

// opSpans returns op's spans.
func (t *tracer) opSpans(op int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

// layerTimes sums op's span durations by name and adds "<name>.self", the
// self time of every span that has children: its duration minus the union
// of its children's intervals (children may overlap each other in the
// pipelined engine).
func layerTimes(spans []span) map[string]float64 {
	out := map[string]float64{}
	children := map[int][]span{}
	for _, s := range spans {
		out[s.Name] += s.dur()
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range spans {
		if kids := children[s.ID]; len(kids) > 0 {
			out[s.Name+".self"] += s.dur() - covered(s, kids)
		}
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// the parent's.
func covered(parent span, kids []span) float64 {
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else {
			curHi = max(curHi, x[1])
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeJSON writes every span, in recording order, as one JSON document.
func (t *tracer) writeJSON(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return json.NewEncoder(w).Encode(t.spans)
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// synthesize runs the synthesis pipeline layer by layer, exactly as
// core.SynthesizeOpts does for a DCS request, with one span per layer
// call.
func (t *tracer) synthesize(op, parent int, prog *loops.Program, cfg machine.Config, seed int64) (*core.Synthesis, error) {
	id := t.begin("tiling.tile", op, parent)
	tree, err := tiling.Tile(prog)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("placement.enumerate", op, parent)
	model, err := placement.Enumerate(tree, cfg, placement.Options{})
	t.end(id)
	if err != nil {
		return nil, err
	}
	for _, ch := range model.Choices {
		t.count(op, "placement.candidates", float64(len(ch.Candidates)))
	}
	id = t.begin("nlp.build", op, parent)
	prob := nlp.Build(model)
	t.end(id)

	strategy, _ := core.DCS.SolverStrategy()
	a0 := totalAlloc()
	id = t.begin("dcs.solve", op, parent)
	res, err := dcs.Run(context.Background(), prob, dcs.WithStrategy(strategy), dcs.WithSeed(seed))
	t.end(id)
	t.count(op, "dcs.alloc_b", float64(totalAlloc()-a0))
	if err != nil {
		return nil, err
	}
	if !res.Feasible {
		return nil, fmt.Errorf("perfbench: DCS found no feasible configuration (memory limit %d)", cfg.MemoryLimit)
	}
	id = t.begin("codegen.generate", op, parent)
	plan, err := codegen.Generate(prob, res.X)
	t.end(id)
	if err != nil {
		return nil, err
	}
	return &core.Synthesis{Tree: tree, Model: model, Problem: prob, X: res.X,
		Assign: prob.Decode(res.X), Plan: plan, SolverEvals: int64(res.Evals)}, nil
}

// contract runs one data-workload op layer by layer, as ooc.Contract and
// the op's Sync do, with the backend wrapped in the timing decorator.
func (t *tracer) contract(op int, w *dataWorkload, o *opOut) error {
	root := t.root(op)
	tb := newTimedBackend(w.be, t, op)
	id := t.begin("expr.parse", op, root)
	c, err := parseInferred(tb, w.spec)
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin("expr.minimize", op, root)
	plan, err := expr.Minimize(c, c.Out.Name+"_t")
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin("loops.fuse", op, root)
	prog, err := loops.FromPlan(plan)
	if err == nil {
		prog = loops.FuseGreedy(prog)
	}
	t.end(id)
	if err != nil {
		return err
	}
	s, err := t.synthesize(op, root, prog, w.cfg, w.seed)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	disk.AttachMetrics(tb, reg)
	a0 := totalAlloc()
	id = t.begin("exec.run", op, root)
	tb.parent.Store(int64(id))
	res, err := exec.Run(s.Plan, tb, nil, exec.Options{OpenInputs: true, NoFetch: true, Workers: 1, Pipeline: w.pipeline})
	t.end(id)
	t.count(op, "exec.alloc_b", float64(totalAlloc()-a0))
	tb.parent.Store(int64(root))
	disk.AttachMetrics(tb, nil)
	if err != nil {
		return err
	}
	if st, ok := w.be.(*ring.Store); ok {
		t.ringShards(op, st)
	}
	if err := disk.SyncBackend(tb); err != nil {
		return fmt.Errorf("perfbench: sync: %w", err)
	}
	failovers := int64(0) // per-shard series of the ring's failover counter
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, ring.MetricFailover) {
			failovers += v
		}
	}
	t.count(op, "ring.failovers", float64(failovers))
	o.add(s, res.Stats)
	return nil
}

// ringShards counts the ring's shard tier after an op: operations served
// by all shards, their fan-out per front-door operation, the busiest
// shard's load over the mean, and hedged reads issued.
func (t *tracer) ringShards(op int, st *ring.Store) {
	agg, front := st.AggregateStats(), st.Stats()
	total := float64(agg.ReadOps + agg.WriteOps)
	peak := 0.0
	n := st.Live()
	for i := 0; i < n; i++ {
		s := st.ShardStats(i)
		peak = max(peak, float64(s.ReadOps+s.WriteOps))
	}
	issued, _, _ := st.HedgeCounts()
	t.count(op, "ring.shard_ops", total)
	t.count(op, "ring.fanout", ratioOr0(total, float64(front.ReadOps+front.WriteOps)))
	t.count(op, "ring.shard_skew", ratioOr0(peak*float64(n), total))
	t.count(op, "ring.hedges_issued", float64(issued))
}

// parseInferred parses a contraction spec with every index extent taken
// from the operands on the backend, as ooc.Contract does.
func parseInferred(be disk.Backend, spec string) (*expr.Contraction, error) {
	probe, err := expr.ParseStructure(spec)
	if err != nil {
		return nil, err
	}
	ranges := map[string]int64{}
	for _, op := range probe.Operands {
		arr, err := be.Open(op.Name)
		if err != nil {
			return nil, fmt.Errorf("perfbench: operand %q: %w", op.Name, err)
		}
		dims := arr.Dims()
		if len(dims) != len(op.Indices) {
			return nil, fmt.Errorf("perfbench: operand %q has rank %d, spec uses %d indices", op.Name, len(dims), len(op.Indices))
		}
		for i, x := range op.Indices {
			ranges[x] = dims[i]
		}
	}
	return expr.Parse(spec, ranges)
}

// timedBackend is the benchmark's timing decorator: it records one span
// per section call and per Sync, and otherwise forwards to the backend it
// wraps, including the async, wrapper-chain, sync and metrics contracts,
// so the engine takes the same path as on the bare backend.
type timedBackend struct {
	inner  disk.Backend
	tr     *tracer
	op     int
	parent atomic.Int64 // span the section calls are children of
	prefix string       // "disk" for a FileStore, "ring" otherwise
}

func newTimedBackend(inner disk.Backend, tr *tracer, op int) *timedBackend {
	tb := &timedBackend{inner: inner, tr: tr, op: op, prefix: "ring"}
	if _, ok := inner.(*disk.FileStore); ok {
		tb.prefix = "disk"
	}
	tb.parent.Store(int64(tr.root(op)))
	return tb
}

func (b *timedBackend) Create(name string, dims []int64) (disk.Array, error) {
	a, err := b.inner.Create(name, dims)
	if err != nil {
		return nil, err
	}
	return &timedArray{inner: a, b: b}, nil
}

func (b *timedBackend) Open(name string) (disk.Array, error) {
	a, err := b.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &timedArray{inner: a, b: b}, nil
}

func (b *timedBackend) Stats() disk.Stats            { return b.inner.Stats() }
func (b *timedBackend) ResetStats()                  { b.inner.ResetStats() }
func (b *timedBackend) Close() error                 { return b.inner.Close() }
func (b *timedBackend) Inner() disk.Backend          { return b.inner }
func (b *timedBackend) SetMetrics(reg *obs.Registry) { disk.AttachMetrics(b.inner, reg) }

// AsyncCapable forwards the wrapped backend's capability.
func (b *timedBackend) AsyncCapable() bool {
	ab, ok := b.inner.(disk.AsyncBackend)
	return ok && ab.AsyncCapable()
}

// Sync times the durability flush of the first Syncer along the wrapped
// chain.
func (b *timedBackend) Sync() error {
	start := b.tr.now()
	err := disk.SyncBackend(b.inner)
	b.tr.record(b.prefix+".sync", b.op, int(b.parent.Load()), start, b.tr.now(), 0)
	return err
}

func (b *timedBackend) done(read bool, shape []int64, start float64) {
	n := int64(8)
	for _, s := range shape {
		n *= s
	}
	name := b.prefix + ".write"
	if read {
		name = b.prefix + ".read"
	}
	b.tr.record(name, b.op, int(b.parent.Load()), start, b.tr.now(), n)
}

type timedArray struct {
	inner disk.Array
	b     *timedBackend
}

func (a *timedArray) Name() string  { return a.inner.Name() }
func (a *timedArray) Dims() []int64 { return a.inner.Dims() }

func (a *timedArray) ReadSection(lo, shape []int64, buf []float64) error {
	start := a.b.tr.now()
	err := a.inner.ReadSection(lo, shape, buf)
	a.b.done(true, shape, start)
	return err
}

func (a *timedArray) WriteSection(lo, shape []int64, buf []float64) error {
	start := a.b.tr.now()
	err := a.inner.WriteSection(lo, shape, buf)
	a.b.done(false, shape, start)
	return err
}

// ReadAsync issues the read on the wrapped array's async view (native, or
// the same adapter the engine would use on the bare array); the span runs
// from issue to Await.
func (a *timedArray) ReadAsync(lo, shape []int64, buf []float64) disk.Completion {
	start := a.b.tr.now()
	return &timedCompletion{inner: disk.AsAsync(a.inner).ReadAsync(lo, shape, buf),
		done: func() { a.b.done(true, shape, start) }}
}

func (a *timedArray) WriteAsync(lo, shape []int64, buf []float64) disk.Completion {
	start := a.b.tr.now()
	return &timedCompletion{inner: disk.AsAsync(a.inner).WriteAsync(lo, shape, buf),
		done: func() { a.b.done(false, shape, start) }}
}

type timedCompletion struct {
	inner disk.Completion
	done  func()
}

func (c *timedCompletion) Await() error {
	err := c.inner.Await()
	c.done()
	return err
}
