package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},
		{20, 50},
		{99, 50},
		{100, 90},
		{999, 90},
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
		{99999, 99.9},
		{100000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for n := 20; n <= 20000; n += 7 {
		p := tailPercentile(n)
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(i)
		}
		at := percentile(vs, p)
		above := 0
		for _, v := range vs {
			if v > at {
				above++
			}
		}
		if above < 10 {
			t.Fatalf("n=%d: p%v leaves %d samples beyond it", n, p, above)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {10, 1}, {50, 5}, {55, 6}, {99, 10}, {100, 10}} {
		if got := percentile(vs, tc.p); got != tc.want {
			t.Errorf("percentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestBacklogged(t *testing.T) {
	steady := make([]float64, 1000)
	stalled := make([]float64, 1000)
	growing := make([]float64, 1000)
	for i := range steady {
		steady[i] = float64(10 + i%50)
		stalled[i] = steady[i]
		growing[i] = float64(10 + 50*i) // 50 µs more behind with every arrival
	}
	for i := 900; i < 1000; i++ {
		stalled[i] += 20_000 // a 20 ms stall of the host near the end
	}
	if backlogged(steady) {
		t.Error("a steady send lag counts as a backlog")
	}
	if backlogged(stalled) {
		t.Error("a transient stall counts as a backlog")
	}
	if !backlogged(growing) {
		t.Error("a send lag growing to 50 ms does not count as a backlog")
	}
}
