package ebpf

import (
	"fmt"
	"io"
)

// VerifyError describes a verification failure at an instruction.
// Program-level failures (an empty program) carry the zero Instruction.
type VerifyError struct {
	PC   int
	Insn Instruction
	Msg  string
}

func (e *VerifyError) Error() string {
	if e.Insn == (Instruction{}) {
		return fmt.Sprintf("verifier: insn %d: %s", e.PC, e.Msg)
	}
	return fmt.Sprintf("verifier: insn %d (%s): %s", e.PC, e.Insn, e.Msg)
}

// helperResolver lets the verifier check call targets without
// depending on a concrete VM (tests can pass a stub).
type helperResolver interface {
	Helper(id int32) (HelperSpec, bool)
}

// mapResolver is optionally implemented by the resolver (a *VM always
// does); when present, the verifier tracks which constants name maps
// and enforces map-helper argument types.
type mapResolver interface {
	MapByFD(fd int32) (*Map, bool)
}

// isMapHelper reports whether id is one of the map-access helpers and
// how many stack-pointer arguments follow the map argument.
func isMapHelper(id int32) (ptrArgs int, ok bool) {
	switch id {
	case HelperMapLookupElem, HelperMapUpdateElem:
		return 2, true // key ptr, value ptr
	case HelperMapDeleteElem:
		return 1, true // key ptr
	}
	return 0, false
}

// Verify statically checks an eBPF program the way the modern
// (bounded-loop-capable) Linux verifier does: one abstract
// interpretation (absint*.go) over tnum + interval register states,
// with branch-feasibility pruning, run to a fixpoint. A program is
// accepted when every instruction some execution can reach is proven
// safe:
//
//   - the program is non-empty and at most MaxProgramLen instructions;
//   - every control transfer lands inside the program and never in the
//     upper half of a lddw; backward jumps (loops) are permitted — the
//     runtime instruction budget (InsnBudget, the analogue of the
//     kernel's 1M-instruction complexity bound) enforces termination,
//     and widening guarantees the analysis itself terminates;
//   - every register is written before it is read on every path;
//     R1–R5 are clobbered by calls; R10 is read-only;
//   - loads and stores go through stack pointers whose offset range is
//     provably inside the 512-byte frame;
//   - division/modulo by a zero immediate is rejected;
//   - call targets resolve to registered helpers/kfuncs, and map
//     helpers get a map reference in R1 and in-frame stack pointers
//     for their key/value arguments;
//   - every execution path reaches EXIT with R0 initialized.
//
// Code behind an edge no execution can take is never checked, so a
// bounded scan over a proven induction variable, or an invalid region
// guarded by an always-true branch, is accepted. The first failure in
// program order is returned as a *VerifyError. VM.Analyze returns the
// full analysis for report mode.
func Verify(insns []Instruction, res helperResolver) error {
	r := analyzeInsns(insns, absintOpts(res))
	if r.OK {
		return nil
	}
	e := &VerifyError{PC: r.Err.PC, Msg: r.Err.Msg}
	if e.PC < len(insns) {
		e.Insn = insns[e.PC]
	}
	return e
}

// absintOpts adapts a helper resolver into the analyzer's environment
// callbacks: which call targets resolve and which constants name maps.
func absintOpts(res helperResolver) analysisOpts {
	var opts analysisOpts
	if res != nil {
		opts.KnownHelper = func(id int32) bool {
			_, ok := res.Helper(id)
			return ok
		}
	}
	if maps, ok := res.(mapResolver); ok && maps != nil {
		opts.ValidMapFD = func(fd int64) bool {
			if fd < 0 || fd > 1<<31-1 {
				return false
			}
			_, ok := maps.MapByFD(int32(fd))
			return ok
		}
		// Map-helper argument discipline is only enforced when maps
		// can be resolved at all.
		opts.MapHelper = isMapHelper
	}
	return opts
}

// Analyze runs the abstract interpreter over insns in this VM's
// helper/map environment and returns the full result: reachability,
// per-branch feasibility and findings. It is the analysis Verify runs,
// and it does not require the program to pass.
func (vm *VM) Analyze(insns []Instruction) *AnalysisResult {
	return analyzeInsns(insns, absintOpts(vm))
}

// WriteAbsintReport renders an analysis result as the human-readable
// static-analysis report `snapbpf-ebpf-check` prints: verdict and
// length, then every finding with its disassembled
// instruction. It returns the number of unproven accesses (the
// contract `snapbpf-ebpf-check` enforces).
func WriteAbsintReport(w io.Writer, name string, insns []Instruction, r *AnalysisResult) int {
	verdict := "OK"
	if !r.OK {
		verdict = "REJECTED"
	}
	fmt.Fprintf(w, "program %s: %s, %d insns\n", name, verdict, len(insns))
	if r.Err != nil {
		fmt.Fprintf(w, "  error at pc %d: %s\n    state: %s\n", r.Err.PC, r.Err.Msg, r.Err.State)
	}
	unproven := 0
	for _, f := range r.Findings {
		if f.Kind == "unproven-access" {
			unproven++
		}
		insn := ""
		if f.PC >= 0 && f.PC < len(insns) {
			insn = fmt.Sprintf("  [%s]", insns[f.PC])
		}
		fmt.Fprintf(w, "  %-17s pc %3d: %s%s\n", f.Kind, f.PC, f.Msg, insn)
	}
	return unproven
}
