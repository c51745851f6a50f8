// snapbpf-ebpf-check runs the abstract interpreter over the built-in
// SnapBPF eBPF programs (capture and prefetch) and prints the static
// analysis report: verdict, instruction count, dead code,
// infeasible branches, and any unproven memory accesses with the
// abstract register state at the failure point.
//
// The exit status is the compile-time contract enforced in CI: zero
// only when every program is accepted with zero unproven accesses.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"snapbpf/internal/core"
	"snapbpf/internal/ebpf"
)

func main() {
	disasm := flag.Bool("disasm", false, "also print each program's full disassembly")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "usage: snapbpf-ebpf-check [-disasm]\n")
		os.Exit(2)
	}
	if err := writeReport(os.Stdout, *disasm); err != nil {
		fmt.Fprintf(os.Stderr, "snapbpf-ebpf-check: FAIL: %v\n", err)
		os.Exit(1)
	}
}

// writeReport prints the report for every built-in program, each
// followed by its disassembly when disasm is set, and fails when any
// program is rejected or has an unproven access.
func writeReport(w io.Writer, disasm bool) error {
	failed := false
	for _, bp := range core.BuiltinPrograms() {
		r := bp.VM.Analyze(bp.Insns)
		unproven := ebpf.WriteAbsintReport(w, bp.Name, bp.Insns, r)
		if disasm {
			fmt.Fprintln(w, ebpf.Disassemble(bp.Insns))
		}
		if !r.OK || unproven > 0 {
			failed = true
		}
	}
	if failed {
		return errors.New("unproven accesses or rejected programs")
	}
	return nil
}
