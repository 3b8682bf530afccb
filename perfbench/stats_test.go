package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
	if got := tailCount(100, 90); got != 10 {
		t.Errorf("tailCount(100, 90) = %d, want 10", got)
	}
	if got := tailCount(99, 90); got != 9 {
		t.Errorf("tailCount(99, 90) = %d, want 9", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Error("quartiles of one value is not NaN")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean([]float64{3.5}); !near(got, 3.5) {
		t.Errorf("geomean of one = %v, want 3.5", got)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}} {
		if !math.IsNaN(geomean(bad)) {
			t.Errorf("geomean(%v) is not NaN", bad)
		}
	}
}

func TestRates(t *testing.T) {
	// 300 requests in 10 s: 150 of 1 ms, then 150 of 3 ms, ten of which
	// failed.
	var lat []float64
	for i := 0; i < 300; i++ {
		ms := 1.0
		if i >= 150 {
			ms = 3
			if i%15 == 0 {
				ms = math.Inf(1)
			}
		}
		lat = append(lat, ms)
	}
	rps, p50, p90 := rates(lat, 10e3)
	if !near(rps, 29) || !near(p50, 1) || !near(p90, 3) {
		t.Errorf("rps %v p50 %v p90 %v, want 29, 1, 3", rps, p50, p90)
	}
}

func TestCPUClock(t *testing.T) {
	// Sleeping uses no CPU; spinning does.
	t0 := now()
	time.Sleep(50 * time.Millisecond)
	if e := t0.since(); e.cpu > 20 || e.wall < 50 {
		t.Errorf("a 50 ms sleep read %.1f ms CPU, %.1f ms wall", e.cpu, e.wall)
	}
	t0 = now()
	for t0.since().wall < 30 {
	}
	if e := t0.since(); e.cpu < 5 {
		t.Errorf("spinning for %.1f ms wall read %.1f ms CPU", e.wall, e.cpu)
	}
}
