// Package simtime keeps virtual and wall-clock time apart.
//
// sim.Time is a point on the simulation clock; time.Duration (and its
// alias sim.Duration) is a span; time.Time is a wall-clock point.
// Converting directly between sim.Time and either wall-clock type
// silently reinterprets an absolute virtual timestamp as a span (or
// vice versa) — the unit bug class behind subtle latency accounting
// errors. Outside package sim itself (whose Add/Sub/String methods are
// the blessed converters), such conversions must go through
// Time.Add(d) and Time.Sub(u).
package simtime

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"snapbpf/internal/analysis/allow"
	"snapbpf/internal/analysis/lintutil"
)

// Analyzer is the simtime pass.
const name = "simtime"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "forbid direct conversions between sim.Time and wall-clock time types",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func isSimTime(t types.Type) bool  { return lintutil.IsNamed(t, "sim", "Time", false) }
func isWallTime(t types.Type) bool { return lintutil.IsNamed(t, "time", "Time", false) }
func isDuration(t types.Type) bool { return lintutil.IsNamed(t, "time", "Duration", false) }

func run(pass *analysis.Pass) (interface{}, error) {
	tr := allow.New(pass, name)
	defer tr.Finish()
	// The sim package itself implements the blessed converters.
	if lintutil.PkgBase(pass.Pkg.Path()) == "sim" {
		return nil, nil
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if len(call.Args) != 1 {
			return
		}
		tv, ok := pass.TypesInfo.Types[call.Fun]
		if !ok || !tv.IsType() {
			return // ordinary call, not a conversion
		}
		dst := tv.Type
		src := pass.TypesInfo.TypeOf(call.Args[0])
		wallDst := isWallTime(dst) || isDuration(dst)
		wallSrc := isWallTime(src) || isDuration(src)
		switch {
		case isSimTime(dst) && wallSrc:
			tr.Reportf(call.Pos(),
				"conversion of wall-clock %s to sim.Time reinterprets a span as a virtual timestamp; use sim.Time.Add",
				types.Unalias(src))
		case wallDst && isSimTime(src):
			tr.Reportf(call.Pos(),
				"conversion of sim.Time to wall-clock %s reinterprets a virtual timestamp as a span; use sim.Time.Sub",
				types.Unalias(dst))
		}
	})
	return nil, nil
}
