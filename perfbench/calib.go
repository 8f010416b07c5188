package main

import (
	"runtime"
	"sort"
	"time"
)

// refNominalSeconds is R_nominal: the typical duration of one reference
// timing (timeRef) on the host the benchmark was sized on, a 2-vCPU x86-64
// VM running Go 1.24. Calibrated seconds are raw seconds × R_nominal ÷
// R_measured, where R_measured is the mean of the reference timings taken
// right before and right after the timed region, so a region that ran
// while the host was slow reads about the same as one on a quiet host.
//
// Why this reference: on that host the op time of identical processes run
// back to back moved with the load its neighbours put on the machine.
// Over eight such processes the spread (IQR over median) of the op's
// median time, and of its ratio to each candidate reference, was, for the
// synthesis, GEMM and ring ops:
// raw 0.36/0.52/0.27; an L1-resident float loop 0.27/0.41/0.22; a pointer
// chase through 256 KB 0.21/0.39/0.17; a chase through 8 MB
// 0.17/0.33/0.09; a small-object allocation burst 0.18/0.29/0.31; the
// 8 MB chase plus a short allocation burst 0.17/0.30/0.09. The ops are
// bound by cache and memory latency and by the collector, not by
// arithmetic, so the reference is that last mix.
const refNominalSeconds = 0.030

// refRepeats is how many refWork calls one reference timing takes the
// median of, so a single preempted call does not skew it.
const refRepeats = 3

// refRing is the chase ring as successor indices (pointer-free, so the
// collector never scans it and the program's collections cost the same
// with and without it), built once by initRef before any timing.
var refRing []uint32

// refSink keeps refWork's result live so the compiler cannot drop the work.
var refSink uint64

// initRef builds the 8 MB chase ring: 128k entries 64 bytes apart (one per
// cache line), linked in a fixed pseudo-random order (xorshift
// Fisher-Yates) so the chase defeats the prefetcher.
func initRef() {
	const n, stride = 1 << 17, 16
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	state := uint64(0x9E3779B97F4A7C15)
	for i := n - 1; i > 0; i-- {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		j := int(state % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	refRing = make([]uint32, n*stride)
	for i := range order {
		refRing[order[i]*stride] = order[(i+1)%n] * stride
	}
}

// refKeep makes refWork's allocations escape to the heap.
var refKeep [64][]uint64

// refWork is the fixed reference loop: a dependent-load chase through the
// ring, then a burst of short-lived small heap allocations.
func refWork() uint64 {
	p := uint32(0)
	for i := 0; i < 150_000; i++ {
		p = refRing[p]
	}
	sum := uint64(p)
	for i := 0; i < 100_000; i++ {
		b := make([]uint64, 8)
		b[i%8] = uint64(i)
		refKeep[i%len(refKeep)] = b
		sum += b[0]
	}
	return sum
}

// timeRef takes one reference timing: the median wall seconds of
// refRepeats refWork calls, after a collection.
func timeRef() float64 {
	runtime.GC()
	var d [refRepeats]float64
	for i := range d {
		t0 := time.Now()
		refSink += refWork()
		d[i] = time.Since(t0).Seconds()
	}
	sort.Float64s(d[:])
	return d[refRepeats/2]
}

// calibrate converts raw wall seconds to reference-calibrated seconds,
// given the reference duration measured around them.
func calibrate(raw, refMeasured float64) float64 {
	return raw * refNominalSeconds / refMeasured
}
