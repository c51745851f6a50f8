package ebpf

import "fmt"

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
// interpretation (internal/ebpf/absint) over tnum + interval register
// states, with branch-feasibility pruning, run to a fixpoint. A
// program is accepted when every instruction some execution can reach
// is proven safe:
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
	r := analyzeProgram(insns, res)
	if r.OK {
		return nil
	}
	e := &VerifyError{PC: r.Err.PC, Msg: r.Err.Msg}
	if e.PC < len(insns) {
		e.Insn = insns[e.PC]
	}
	return e
}
