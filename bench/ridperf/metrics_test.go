package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"testing"
)

// TestQuantilesStayInRange is the property the log2-bucket estimates of
// the obs registry break: on any sample set, min ≤ p50 ≤ p90 ≤ max, and
// each quantile is one of the samples.
func TestQuantilesStayInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		s := make([]float64, 1+rng.Intn(300))
		for i := range s {
			switch iter % 3 {
			case 0:
				s[i] = rng.Float64() * 1000
			case 1:
				s[i] = rng.ExpFloat64() * 20 // long-tailed, like latencies
			default:
				s[i] = float64(rng.Intn(4)) // many ties
			}
		}
		lo, hi := slices.Min(s), slices.Max(s)
		p50, p90 := nearestRank(s, 0.5), nearestRank(s, 0.9)
		if !(lo <= p50 && p50 <= p90 && p90 <= hi) {
			t.Fatalf("samples %v: min %v p50 %v p90 %v max %v", s, lo, p50, p90, hi)
		}
		if !slices.Contains(s, p50) || !slices.Contains(s, p90) {
			t.Fatalf("samples %v: p50 %v or p90 %v is not a sample", s, p50, p90)
		}
	}
	if got := nearestRank([]float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}, 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric and workload names this
// program prints in step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(names, declared) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	if !slices.Equal(endToEnd, b.EndToEnd) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", endToEnd, b.EndToEnd)
	}
	if !slices.Equal(perLayer, b.PerLayer) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", perLayer, b.PerLayer)
	}
}
