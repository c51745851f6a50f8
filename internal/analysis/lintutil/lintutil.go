// Package lintutil holds the small shared vocabulary of the
// snapbpf-lint analyzers: which packages are bound by the determinism
// contract, and type/expression helpers used by more than one pass.
package lintutil

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// deterministicRoots are the first path segments (under
// snapbpf/internal/) of packages whose behaviour must be a pure
// function of their seeds and the virtual clock. prefetch covers its
// whole subtree.
var deterministicRoots = map[string]bool{
	"sim":       true,
	"blockdev":  true,
	"pagecache": true,
	"hostmm":    true,
	"kvm":       true,
	"ebpf":      true,
	"faults":    true,
	"prefetch":  true,
	"check":     true,
	"obs":       true,
	"workload":  true,
	"calib":     true,
	"cluster":   true,
	"store":     true,
	"testbed":   true,
}

// DeterministicPkg reports whether the import path is bound by the
// determinism contract. It accepts full module paths
// ("snapbpf/internal/sim"), external test packages
// ("snapbpf/internal/sim_test"), and bare testdata paths ("sim",
// "prefetch/groups").
func DeterministicPkg(path string) bool {
	rest := path
	if i := strings.Index(rest, "internal/"); i >= 0 {
		rest = rest[i+len("internal/"):]
	}
	rest = strings.TrimSuffix(rest, "_test")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return deterministicRoots[rest]
}

// PkgBase returns the last segment of an import path, with any
// "_test" suffix removed, so "snapbpf/internal/sim_test" and "sim"
// both yield "sim".
func PkgBase(path string) string {
	path = strings.TrimSuffix(path, "_test")
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path
}

// IsNamed reports whether t (after unaliasing) is the named type
// pkgBase.name, where pkgBase is matched against the last segment of
// the defining package's path. It sees through pointers when deref is
// set.
func IsNamed(t types.Type, pkgBase, name string, deref bool) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if deref {
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return PkgBase(obj.Pkg().Path()) == pkgBase
}

// ExprString renders an expression compactly for diagnostics and for
// structural comparison of guard conditions.
func ExprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, fset, e)
	return buf.String()
}
