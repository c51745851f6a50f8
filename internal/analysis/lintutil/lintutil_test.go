package lintutil

import "testing"

func TestDeterministicPkg(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"snapbpf/internal/sim", true},
		{"snapbpf/internal/sim_test", true},
		{"snapbpf/internal/prefetch", true},
		{"snapbpf/internal/prefetch/groups", true},
		{"snapbpf/internal/workload", true},
		{"snapbpf/internal/cluster", true},
		{"snapbpf/internal/cluster_test", true},
		{"snapbpf/internal/check", true},
		{"snapbpf/internal/calib", true},
		{"snapbpf/internal/testbed", true},
		{"snapbpf/internal/experiments", false},
		{"snapbpf/internal/units", false},
		{"snapbpf", false},
		{"sim", true},
		{"blockdev", true},
		{"clockuser", false},
		{"prefetch/groups", true},
	}
	for _, c := range cases {
		if got := DeterministicPkg(c.path); got != c.want {
			t.Errorf("DeterministicPkg(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestPkgBase(t *testing.T) {
	cases := map[string]string{
		"snapbpf/internal/sim":      "sim",
		"snapbpf/internal/sim_test": "sim",
		"units":                     "units",
		"a/b/c":                     "c",
	}
	for path, want := range cases {
		if got := PkgBase(path); got != want {
			t.Errorf("PkgBase(%q) = %q, want %q", path, got, want)
		}
	}
}
