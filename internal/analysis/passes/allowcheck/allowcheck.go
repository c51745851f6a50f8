// Package allowcheck validates //lint:allow directives themselves.
//
// A directive must name one of the snapbpf-lint analyzers and carry a
// non-empty reason; anything else is dead weight that *looks* like a
// suppression but suppresses nothing. (Whether a well-formed directive
// is load-bearing is checked by the named analyzer itself, which
// reports directives that suppressed no diagnostic.)
package allowcheck

import (
	"golang.org/x/tools/go/analysis"

	"snapbpf/internal/analysis/allow"
)

// Known is the set of analyzer names a directive may target.
var Known = map[string]bool{
	"detnondet":    true,
	"clusterepoch": true,
	"maporder":     true,
	"simtime":      true,
	"unitsafety":   true,
}

// Analyzer is the allowcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "allowcheck",
	Doc:  "validate //lint:allow directive syntax and analyzer names",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, c := range allow.Comments(f) {
			d, _ := allow.Parse(c.Text)
			switch {
			case d.Analyzer == "":
				pass.Reportf(c.Pos(), "malformed //lint:allow directive: missing analyzer name and reason")
			case !Known[d.Analyzer]:
				pass.Reportf(c.Pos(), "//lint:allow names unknown analyzer %q", d.Analyzer)
			case d.Reason == "":
				pass.Reportf(c.Pos(), "//lint:allow %s is missing a reason; reasons are mandatory", d.Analyzer)
			}
		}
	}
	return nil, nil
}
