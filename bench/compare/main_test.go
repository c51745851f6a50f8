package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartiles(xs), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	if got := quartiles([]float64{4}); got != [3]float64{4, 4, 4} {
		t.Errorf("quartiles of one value = %v", got)
	}
}

func TestVerdicts(t *testing.T) {
	bound := 0.1
	base := []float64{1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	host := func(a, b []float64, lower bool, bound *float64) string {
		return hostVerdict(a, b, quartiles(a), quartiles(b), winFraction(a, b, lower), lower, bound)
	}
	for _, tc := range []struct {
		name  string
		b     []float64
		lower bool
		bound *float64
		want  string
	}{
		{"same runs", base, true, &bound, "unchanged"},
		{"30% slower", scale(1.3), true, &bound, "worse"},
		{"5% slower, within bound", scale(1.05), true, &bound, "unchanged"},
		{"20% faster", scale(0.8), true, &bound, "improved"},
		{"20% more throughput", scale(1.2), false, &bound, "improved"},
		{"no bound, no winner", base, true, nil, "unresolved"},
		{"no bound, 30% slower", scale(1.3), true, nil, "worse"},
	} {
		if got := host(base, tc.b, tc.lower, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	wide := []float64{0.5, 1.5, 0.6, 1.4, 1.0}
	if got := host(wide, wide, true, &bound); got != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", got)
	}
	if got := host(base[:5], scale(0.8)[:5], true, &bound); got != "unchanged" {
		t.Errorf("20%% faster over five pairs: %s, want unchanged (too few pairs to claim a gain)", got)
	}

	sim := []float64{3, 3, 3}
	for _, tc := range []struct {
		b    []float64
		want string
	}{{[]float64{3, 3, 3}, "unchanged"}, {[]float64{3.001, 3.001, 3.001}, "worse"}, {[]float64{2, 2, 2}, "improved"}} {
		if got := exact(sim, tc.b, 3, quartiles(tc.b)[1], true); got != tc.want {
			t.Errorf("simulated %v: %s, want %s", tc.b, got, tc.want)
		}
	}
}
