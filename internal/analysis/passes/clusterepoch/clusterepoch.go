// Package clusterepoch enforces the warm-pool timer contracts of
// internal/cluster.
//
// The cluster simulator parks warm sandboxes and arms idle-eviction
// timers through engine.Schedule. A timer callback runs arbitrarily
// far in virtual time from when it was armed: by then the sandbox may
// have been taken, evicted by the budget, or re-parked. The PR 8
// idiom defends against that with an epoch counter — the pool bumps
// v.epoch on every ownership change, the closure captures the epoch
// at arm time and re-checks it before touching pool state.
//
// Inside any function literal passed to engine.Schedule (or
// ScheduleAt), a warm-pool mutation — a mutating warmPool method
// call, or a write to a warmPool/warmVM field — must be dominated by
// an epoch comparison (`v.epoch == epoch` as an if condition or an
// earlier && conjunct). A stale timer that skips the check evicts a
// sandbox that is busy serving, or double-frees one already evicted.
//
// Code using other dominance patterns (early return on a stale epoch)
// must carry a //lint:allow clusterepoch directive with a reason.
package clusterepoch

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"snapbpf/internal/analysis/allow"
	"snapbpf/internal/analysis/lintutil"
)

// Analyzer is the clusterepoch pass.
const name = "clusterepoch"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "require epoch guards on warm-pool timer callbacks in cluster",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// poolReaders are the warmPool methods that do not mutate the pool;
// every other method call on a warmPool receiver counts as a
// mutation.
var poolReaders = map[string]bool{
	"total":   true,
	"hasIdle": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	tr := allow.New(pass, name)
	// Finish must run even for exempt packages so that a stray
	// //lint:allow clusterepoch there is reported as unused.
	defer tr.Finish()
	if lintutil.PkgBase(pass.Pkg.Path()) != "cluster" {
		return nil, nil
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.WithStack([]ast.Node{
		(*ast.CallExpr)(nil),
		(*ast.AssignStmt)(nil),
		(*ast.IncDecStmt)(nil),
	}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		fl := scheduleClosureIndex(pass, stack)
		if fl < 0 {
			return true
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if isPoolType(pass.TypesInfo.TypeOf(sel.X)) && !poolReaders[sel.Sel.Name] {
				checkEpochGuard(pass, tr, stack, fl, v.Pos(),
					lintutil.ExprString(pass.Fset, sel.X)+"."+sel.Sel.Name)
			}
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && isPoolState(pass.TypesInfo.TypeOf(sel.X)) {
					checkEpochGuard(pass, tr, stack, fl, v.Pos(),
						lintutil.ExprString(pass.Fset, lhs))
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := v.X.(*ast.SelectorExpr); ok && isPoolState(pass.TypesInfo.TypeOf(sel.X)) {
				checkEpochGuard(pass, tr, stack, fl, v.Pos(),
					lintutil.ExprString(pass.Fset, v.X))
			}
		}
		return true
	})
	return nil, nil
}

// checkEpochGuard reports when the pool mutation at pos is not
// dominated by an epoch comparison within the Schedule closure.
func checkEpochGuard(pass *analysis.Pass, tr *allow.Tracker, stack []ast.Node, fl int, pos token.Pos, what string) {
	if epochGuarded(stack, fl, pos) {
		return
	}
	tr.Reportf(pos,
		"warm-pool mutation %s in a scheduled timer callback is not epoch-guarded; compare the captured epoch (e.g. `v.epoch == epoch`) before touching pool state",
		what)
}

// scheduleClosureIndex returns the stack index of the innermost
// function literal passed as an argument to an engine Schedule /
// ScheduleAt call, or -1.
func scheduleClosureIndex(pass *analysis.Pass, stack []ast.Node) int {
	for i := len(stack) - 1; i > 0; i-- {
		if _, ok := stack[i].(*ast.FuncLit); !ok {
			continue
		}
		call, ok := stack[i-1].(*ast.CallExpr)
		if !ok {
			continue
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Schedule" && sel.Sel.Name != "ScheduleAt") {
			continue
		}
		if !lintutil.IsNamed(pass.TypesInfo.TypeOf(sel.X), "sim", "Engine", true) {
			continue
		}
		for _, arg := range call.Args {
			if arg == stack[i] {
				return i
			}
		}
	}
	return -1
}

// isPoolType reports whether t is cluster.warmPool (any package whose
// base is cluster, seen through pointers).
func isPoolType(t types.Type) bool {
	return lintutil.IsNamed(t, "cluster", "warmPool", true)
}

// isPoolState reports whether t is pool state a timer may corrupt:
// the pool itself or a parked sandbox.
func isPoolState(t types.Type) bool {
	return isPoolType(t) || lintutil.IsNamed(t, "cluster", "warmVM", true)
}

// epochGuarded reports whether the node at the top of stack sits
// inside an if (body or condition) whose condition compares an epoch
// before pos. Ancestors outside the Schedule closure (below fl) do
// not count: the guard must run when the timer fires.
func epochGuarded(stack []ast.Node, fl int, pos token.Pos) bool {
	for i := len(stack) - 2; i >= fl; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		child := stack[i+1]
		if child != ifs.Body && !within(ifs.Cond, child) {
			continue // else-branch or init statement
		}
		if condHasEpochCmp(ifs.Cond, pos) {
			return true
		}
	}
	return false
}

// within reports whether n is cond or nested inside it.
func within(cond ast.Expr, n ast.Node) bool {
	found := false
	ast.Inspect(cond, func(x ast.Node) bool {
		if x == n {
			found = true
		}
		return !found
	})
	return found
}

// condHasEpochCmp reports whether cond contains an ==/!= comparison
// mentioning an epoch (field selector or captured local) that is
// evaluated before pos — left of the mutation in the && chain, or
// anywhere in the condition when the mutation is in the body.
func condHasEpochCmp(cond ast.Expr, pos token.Pos) bool {
	found := false
	ast.Inspect(cond, func(x ast.Node) bool {
		b, ok := x.(*ast.BinaryExpr)
		if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
			return !found
		}
		if b.End() <= pos && (mentionsEpoch(b.X) || mentionsEpoch(b.Y)) {
			found = true
		}
		return !found
	})
	return found
}

// mentionsEpoch matches `x.epoch` or a plain `epoch` local.
func mentionsEpoch(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.SelectorExpr:
		return v.Sel.Name == "epoch"
	case *ast.Ident:
		return v.Name == "epoch"
	}
	return false
}
