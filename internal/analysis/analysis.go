// Package analysis is the registry of the snapbpf-lint analyzer
// suite: project-specific go/analysis passes that prove, at build
// time, the determinism and observer contracts the runtime harness
// (internal/check) verifies dynamically. See DESIGN.md §9.
package analysis

import (
	"golang.org/x/tools/go/analysis"

	"snapbpf/internal/analysis/passes/allowcheck"
	"snapbpf/internal/analysis/passes/clusterepoch"
	"snapbpf/internal/analysis/passes/detnondet"
	"snapbpf/internal/analysis/passes/maporder"
	"snapbpf/internal/analysis/passes/simtime"
	"snapbpf/internal/analysis/passes/unitsafety"
)

// All returns every analyzer in the suite, in a fixed order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detnondet.Analyzer,
		clusterepoch.Analyzer,
		maporder.Analyzer,
		simtime.Analyzer,
		unitsafety.Analyzer,
		allowcheck.Analyzer,
	}
}
