package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is an order-statistics view of a sample: its size, median, and
// the highest percentile that still has at least ten samples beyond it
// (Tail is 0 when no percentile qualifies, i.e. fewer than 20 samples).
type summary struct {
	N       int
	Median  float64
	Tail    float64 // percentile rank, e.g. 90 for p90
	TailVal float64
}

// summarize computes the summary of xs (xs is not modified).
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	s.Median = quantile(v, 0.5)
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(v))*(1-p/100) >= 10 {
			s.Tail, s.TailVal = p, quantile(v, p/100)
			break
		}
	}
	return s
}

// quantile linearly interpolates the q-quantile of sorted v.
func quantile(v []float64, q float64) float64 {
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(v)-1)
	return v[lo] + (pos-float64(lo))*(v[hi]-v[lo])
}

func (s summary) String() string {
	out := fmt.Sprintf("p50=%.6g n=%d", s.Median, s.N)
	if s.Tail > 0 {
		out += fmt.Sprintf(" p%g=%.6g", s.Tail, s.TailVal)
	}
	return out
}

// validName reports whether a metric name is 1–64 characters of
// [A-Za-z0-9_.-] starting with a letter or digit.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i, c := range name {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

// validUnit reports whether a unit is 1–16 characters of
// [A-Za-z0-9_/%.-].
func validUnit(unit string) bool {
	if unit == "" || len(unit) > 16 {
		return false
	}
	for _, c := range unit {
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '_' || c == '/' || c == '%' || c == '.' || c == '-'
		if !ok {
			return false
		}
	}
	return true
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects reported metrics, rejecting malformed names, units,
// duplicates, and non-finite values.
type metricSet struct {
	m     map[string]metric
	order []string
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (ms *metricSet) add(name string, value float64, unit string) error {
	switch {
	case !validName(name):
		return fmt.Errorf("perfbench: invalid metric name %q", name)
	case !validUnit(unit):
		return fmt.Errorf("perfbench: metric %s: invalid unit %q", name, unit)
	case math.IsNaN(value) || math.IsInf(value, 0):
		return fmt.Errorf("perfbench: metric %s: non-finite value %v", name, value)
	}
	if _, dup := ms.m[name]; dup {
		return fmt.Errorf("perfbench: metric %s reported twice", name)
	}
	ms.m[name] = metric{Value: value, Unit: unit}
	ms.order = append(ms.order, name)
	return nil
}

// tally counts ops attempted and ops failed (an error, or an output that
// failed its check).
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.failed) / float64(t.attempted)
}
