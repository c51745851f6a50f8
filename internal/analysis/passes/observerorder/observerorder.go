// Package observerorder enforces the causal-order contract of the
// page-cache observers (internal/check, internal/obs).
//
// In package pagecache, in any function that both invokes the
// PageInserted hook on a value of a named `Observer` interface type
// (typically `for _, o := range c.obs { o.PageInserted(...) }`) and
// dispatches kprobes (kprobe.Registry.Fire), PageInserted must come
// first. An attached eBPF program can recursively insert further
// pages, so firing the probe first delivers cache events to the
// observers out of causal order — a bug the runtime harness once
// caught. Hooks need no nil guard: every layer keeps a nil-free
// observer list. Code that must dispatch first carries a
// //lint:allow observerorder directive.
package observerorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"snapbpf/internal/analysis/allow"
	"snapbpf/internal/analysis/lintutil"
)

// Analyzer is the observerorder pass.
const name = "observerorder"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "require the PageInserted observer hook before kprobe dispatch in pagecache",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// isObserver reports whether t is a named interface type called
// Observer, whichever package defines it.
func isObserver(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Name() != "Observer" {
		return false
	}
	_, isIface := n.Underlying().(*types.Interface)
	return isIface
}

// fnEvent is a call of interest with its enclosing function node.
type fnEvent struct {
	fn  ast.Node // *ast.FuncDecl or *ast.FuncLit
	pos token.Pos
}

func run(pass *analysis.Pass) (interface{}, error) {
	tr := allow.New(pass, name)
	// Finish must run even outside pagecache so that a stray
	// //lint:allow observerorder there is reported as unused.
	defer tr.Finish()
	if lintutil.PkgBase(pass.Pkg.Path()) != "pagecache" {
		return nil, nil
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	var fires, inserts []fnEvent
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		call := n.(*ast.CallExpr)
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recvT := pass.TypesInfo.TypeOf(sel.X)
		if sel.Sel.Name == "PageInserted" && isObserver(recvT) {
			inserts = append(inserts, fnEvent{enclosingFunc(stack), call.Pos()})
		}
		if sel.Sel.Name == "Fire" && lintutil.IsNamed(recvT, "kprobe", "Registry", true) {
			fires = append(fires, fnEvent{enclosingFunc(stack), call.Pos()})
		}
		return true
	})

	// Within each function containing both, every kprobe dispatch
	// must follow the first PageInserted invocation.
	sort.Slice(fires, func(i, j int) bool { return fires[i].pos < fires[j].pos })
	for _, f := range fires {
		first := token.NoPos
		for _, in := range inserts {
			if in.fn == f.fn && (first == token.NoPos || in.pos < first) {
				first = in.pos
			}
		}
		if first != token.NoPos && f.pos < first {
			tr.Reportf(f.pos,
				"kprobe dispatch precedes the PageInserted observer in this function; observers must see cache events in causal order (fire PageInserted before Registry.Fire)")
		}
	}
	return nil, nil
}

// enclosingFunc returns the innermost function declaration or literal
// on the stack, or nil at file scope.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}
