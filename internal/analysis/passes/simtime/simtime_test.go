package simtime_test

import (
	"testing"

	"snapbpf/internal/analysis/analysistest"
	"snapbpf/internal/analysis/passes/simtime"
)

func TestSimTime(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), simtime.Analyzer, "clock", "sim")
}

// TestSimTimeAliases reruns the suite with alias types materialised
// (the default from go 1.23 on): sim.Duration is then a types.Alias,
// and diagnostics must still name the aliased type, time.Duration.
func TestSimTimeAliases(t *testing.T) {
	t.Setenv("GODEBUG", "gotypesalias=1")
	analysistest.Run(t, analysistest.TestData(t), simtime.Analyzer, "clock", "sim")
}
