package core

import "snapbpf/internal/ebpf"

// This file assembles the two SnapBPF eBPF programs (§3.1). Both
// attach to the add_to_page_cache_lru kprobe and receive (inode id,
// page offset) as context arguments.

// BuiltinProgram is one kernel-side SnapBPF program paired with a VM
// whose map and helper tables match what attachCapture/armPrefetch
// register at runtime, so static analysis sees the real load
// environment. Used by snapbpf-ebpf-check and BenchmarkVerify.
type BuiltinProgram struct {
	Name  string
	VM    *ebpf.VM
	Insns []ebpf.Instruction
}

// BuiltinPrograms assembles both built-in programs in
// analysis-faithful environments (the map sizes are nominal; only
// fds, types and helper ids matter to verification).
func BuiltinPrograms() []BuiltinProgram {
	cvm := ebpf.NewVM()
	confFD := cvm.RegisterMap(ebpf.MustNewMap(ebpf.MapTypeArray, "snapbpf_capture_conf", 2))
	wsFD := cvm.RegisterMap(ebpf.MustNewMap(ebpf.MapTypeHash, "snapbpf_ws", 1024))

	pvm := ebpf.NewVM()
	pvm.MustRegisterHelper(KfuncSnapbpfPrefetchID, "snapbpf_prefetch",
		func(ctx *ebpf.CallContext, args [5]uint64) (uint64, error) { return 0, nil })
	pconfFD := pvm.RegisterMap(ebpf.MustNewMap(ebpf.MapTypeArray, "snapbpf_pconf", 5))
	gstartFD := pvm.RegisterMap(ebpf.MustNewMap(ebpf.MapTypeArray, "snapbpf_gstart", 1024))
	glenFD := pvm.RegisterMap(ebpf.MustNewMap(ebpf.MapTypeArray, "snapbpf_glen", 1024))

	return []BuiltinProgram{
		{Name: "snapbpf-capture", VM: cvm, Insns: buildCaptureProgram(confFD, wsFD)},
		{Name: "snapbpf-prefetch", VM: pvm, Insns: buildPrefetchProgram(pconfFD, gstartFD, glenFD)},
	}
}

// Capture-program map layout:
//
//	conf (array[2]): [0] = target snapshot inode, [1] = next access seq
//	ws   (hash):     page offset -> access sequence number
//
// The program filters out pages of other files ("it has to filter out
// any pages that do not belong to the function snapshot file") and
// records each captured offset with a monotonically increasing access
// sequence, which later drives the earliest-access group ordering.
func buildCaptureProgram(confFD, wsFD int32) []ebpf.Instruction {
	b := ebpf.NewBuilder()
	// Save context args: inode at fp-8, page offset at fp-16.
	b.StxDW(ebpf.R10, -8, ebpf.R1)
	b.StxDW(ebpf.R10, -16, ebpf.R2)

	// conf[0] -> fp-32: the snapshot inode to capture.
	b.StDWImm(ebpf.R10, -24, 0)
	b.Mov64Imm(ebpf.R1, confFD)
	b.Mov64Reg(ebpf.R2, ebpf.R10).Add64Imm(ebpf.R2, -24)
	b.Mov64Reg(ebpf.R3, ebpf.R10).Add64Imm(ebpf.R3, -32)
	b.Call(ebpf.HelperMapLookupElem)
	b.JmpImm(ebpf.OpJeq, ebpf.R0, 1, "conf_ok")
	b.Mov64Imm(ebpf.R0, 0)
	b.Exit()

	b.Label("conf_ok")
	b.LdxDW(ebpf.R6, ebpf.R10, -32) // target inode
	b.LdxDW(ebpf.R7, ebpf.R10, -8)  // faulting inode
	b.JmpReg(ebpf.OpJeq, ebpf.R6, ebpf.R7, "inode_match")
	b.Mov64Imm(ebpf.R0, 0)
	b.Exit()

	b.Label("inode_match")
	// seq = conf[1] -> fp-32.
	b.StDWImm(ebpf.R10, -24, 1)
	b.Mov64Imm(ebpf.R1, confFD)
	b.Mov64Reg(ebpf.R2, ebpf.R10).Add64Imm(ebpf.R2, -24)
	b.Mov64Reg(ebpf.R3, ebpf.R10).Add64Imm(ebpf.R3, -32)
	b.Call(ebpf.HelperMapLookupElem)
	b.JmpImm(ebpf.OpJeq, ebpf.R0, 1, "seq_ok")
	b.Mov64Imm(ebpf.R0, 0)
	b.Exit()

	b.Label("seq_ok")
	b.LdxDW(ebpf.R8, ebpf.R10, -32) // seq
	// ws[page] = seq (key at fp-16, value already at fp-32).
	b.Mov64Imm(ebpf.R1, wsFD)
	b.Mov64Reg(ebpf.R2, ebpf.R10).Add64Imm(ebpf.R2, -16)
	b.Mov64Reg(ebpf.R3, ebpf.R10).Add64Imm(ebpf.R3, -32)
	b.Call(ebpf.HelperMapUpdateElem)
	// conf[1] = seq + 1.
	b.Add64Imm(ebpf.R8, 1)
	b.StxDW(ebpf.R10, -32, ebpf.R8)
	b.StDWImm(ebpf.R10, -24, 1)
	b.Mov64Imm(ebpf.R1, confFD)
	b.Mov64Reg(ebpf.R2, ebpf.R10).Add64Imm(ebpf.R2, -24)
	b.Mov64Reg(ebpf.R3, ebpf.R10).Add64Imm(ebpf.R3, -32)
	b.Call(ebpf.HelperMapUpdateElem)
	b.Mov64Imm(ebpf.R0, 0)
	b.Exit()
	return b.MustProgram()
}

// Prefetch-program map layout:
//
//	pconf  (array[5]): [0] = target inode, [1] = group count,
//	                   [2] = cursor, [3] = active flag,
//	                   [4] = per-firing batch limit (0 = unlimited)
//	gstart (array[n]): group index -> first page offset
//	glen   (array[n]): group index -> page count
//
// On its triggering firing the program walks the group schedule in
// sorted order, issuing one snapbpf_prefetch() kfunc call per
// contiguous range; "once it issues the read request for the last
// group of offsets, the eBPF program will disable itself" by clearing
// the active flag (§3.1). Nested firings caused by the kfunc's own
// page insertions are suppressed by the kernel's recursion guard.
//
// The batch limit keeps one execution inside the kernel's
// instruction-budget bound when the schedule is pathologically long
// (the per-page-grouping ablation): the program persists its cursor
// and remains active, so subsequent insertions resume the walk.
func buildPrefetchProgram(pconfFD, gstartFD, glenFD int32) []ebpf.Instruction {
	b := ebpf.NewBuilder()
	// Save faulting inode at fp-8.
	b.StxDW(ebpf.R10, -8, ebpf.R1)

	// active = pconf[3]? bail when cleared.
	b.StDWImm(ebpf.R10, -16, 3)
	b.Mov64Imm(ebpf.R1, pconfFD)
	b.Mov64Reg(ebpf.R2, ebpf.R10).Add64Imm(ebpf.R2, -16)
	b.Mov64Reg(ebpf.R3, ebpf.R10).Add64Imm(ebpf.R3, -24)
	b.Call(ebpf.HelperMapLookupElem)
	b.JmpImm(ebpf.OpJeq, ebpf.R0, 1, "have_active")
	b.Mov64Imm(ebpf.R0, 0)
	b.Exit()
	b.Label("have_active")
	b.LdxDW(ebpf.R6, ebpf.R10, -24)
	b.JmpImm(ebpf.OpJne, ebpf.R6, 0, "is_active")
	b.Mov64Imm(ebpf.R0, 0)
	b.Exit()

	b.Label("is_active")
	// Inode filter: pconf[0] must equal the faulting inode.
	b.StDWImm(ebpf.R10, -16, 0)
	b.Mov64Imm(ebpf.R1, pconfFD)
	b.Mov64Reg(ebpf.R2, ebpf.R10).Add64Imm(ebpf.R2, -16)
	b.Mov64Reg(ebpf.R3, ebpf.R10).Add64Imm(ebpf.R3, -24)
	b.Call(ebpf.HelperMapLookupElem)
	b.JmpImm(ebpf.OpJeq, ebpf.R0, 1, "have_inode")
	b.Mov64Imm(ebpf.R0, 0)
	b.Exit()
	b.Label("have_inode")
	b.LdxDW(ebpf.R6, ebpf.R10, -24) // target inode (kept across calls)
	b.LdxDW(ebpf.R7, ebpf.R10, -8)
	b.JmpReg(ebpf.OpJeq, ebpf.R6, ebpf.R7, "inode_match")
	b.Mov64Imm(ebpf.R0, 0)
	b.Exit()

	b.Label("inode_match")
	// R8 = group count (pconf[1]).
	b.StDWImm(ebpf.R10, -16, 1)
	b.Mov64Imm(ebpf.R1, pconfFD)
	b.Mov64Reg(ebpf.R2, ebpf.R10).Add64Imm(ebpf.R2, -16)
	b.Mov64Reg(ebpf.R3, ebpf.R10).Add64Imm(ebpf.R3, -24)
	b.Call(ebpf.HelperMapLookupElem)
	b.JmpImm(ebpf.OpJeq, ebpf.R0, 1, "have_n")
	b.Mov64Imm(ebpf.R0, 0)
	b.Exit()
	b.Label("have_n")
	b.LdxDW(ebpf.R8, ebpf.R10, -24)
	// R9 = cursor (pconf[2]).
	b.StDWImm(ebpf.R10, -16, 2)
	b.Mov64Imm(ebpf.R1, pconfFD)
	b.Mov64Reg(ebpf.R2, ebpf.R10).Add64Imm(ebpf.R2, -16)
	b.Mov64Reg(ebpf.R3, ebpf.R10).Add64Imm(ebpf.R3, -24)
	b.Call(ebpf.HelperMapLookupElem)
	b.JmpImm(ebpf.OpJeq, ebpf.R0, 1, "have_cursor")
	b.Mov64Imm(ebpf.R0, 0)
	b.Exit()
	b.Label("have_cursor")
	b.LdxDW(ebpf.R9, ebpf.R10, -24)

	// R8 = min(ngroups, cursor + batch); pconf[4] absent or zero
	// means no batch limit.
	b.StDWImm(ebpf.R10, -16, 4)
	b.Mov64Imm(ebpf.R1, pconfFD)
	b.Mov64Reg(ebpf.R2, ebpf.R10).Add64Imm(ebpf.R2, -16)
	b.Mov64Reg(ebpf.R3, ebpf.R10).Add64Imm(ebpf.R3, -24)
	b.Call(ebpf.HelperMapLookupElem)
	b.JmpImm(ebpf.OpJne, ebpf.R0, 1, "no_batch")
	b.LdxDW(ebpf.R7, ebpf.R10, -24)
	b.JmpImm(ebpf.OpJeq, ebpf.R7, 0, "no_batch")
	b.Add64Reg(ebpf.R7, ebpf.R9) // end = cursor + batch
	b.JmpReg(ebpf.OpJle, ebpf.R8, ebpf.R7, "no_batch")
	b.Mov64Reg(ebpf.R8, ebpf.R7)
	b.Label("no_batch")

	// Issue the remaining groups of this batch in sorted order.
	b.Label("loop")
	b.JmpReg(ebpf.OpJge, ebpf.R9, ebpf.R8, "done")
	// start = gstart[cursor] -> fp-24.
	b.StxDW(ebpf.R10, -16, ebpf.R9)
	b.Mov64Imm(ebpf.R1, gstartFD)
	b.Mov64Reg(ebpf.R2, ebpf.R10).Add64Imm(ebpf.R2, -16)
	b.Mov64Reg(ebpf.R3, ebpf.R10).Add64Imm(ebpf.R3, -24)
	b.Call(ebpf.HelperMapLookupElem)
	b.JmpImm(ebpf.OpJne, ebpf.R0, 1, "done")
	// len = glen[cursor] -> fp-32.
	b.StxDW(ebpf.R10, -16, ebpf.R9)
	b.Mov64Imm(ebpf.R1, glenFD)
	b.Mov64Reg(ebpf.R2, ebpf.R10).Add64Imm(ebpf.R2, -16)
	b.Mov64Reg(ebpf.R3, ebpf.R10).Add64Imm(ebpf.R3, -32)
	b.Call(ebpf.HelperMapLookupElem)
	b.JmpImm(ebpf.OpJne, ebpf.R0, 1, "done")
	// snapbpf_prefetch(inode, start, len).
	b.Mov64Reg(ebpf.R1, ebpf.R6)
	b.LdxDW(ebpf.R2, ebpf.R10, -24)
	b.LdxDW(ebpf.R3, ebpf.R10, -32)
	b.Call(KfuncSnapbpfPrefetchID)
	b.Add64Imm(ebpf.R9, 1)
	b.Ja("loop")

	b.Label("done")
	// pconf[2] = cursor.
	b.StDWImm(ebpf.R10, -16, 2)
	b.StxDW(ebpf.R10, -24, ebpf.R9)
	b.Mov64Imm(ebpf.R1, pconfFD)
	b.Mov64Reg(ebpf.R2, ebpf.R10).Add64Imm(ebpf.R2, -16)
	b.Mov64Reg(ebpf.R3, ebpf.R10).Add64Imm(ebpf.R3, -24)
	b.Call(ebpf.HelperMapUpdateElem)
	// Reload the true group count: disable only when the cursor has
	// reached the end of the schedule (a batch-limited firing leaves
	// the program active to resume later).
	b.StDWImm(ebpf.R10, -16, 1)
	b.Mov64Imm(ebpf.R1, pconfFD)
	b.Mov64Reg(ebpf.R2, ebpf.R10).Add64Imm(ebpf.R2, -16)
	b.Mov64Reg(ebpf.R3, ebpf.R10).Add64Imm(ebpf.R3, -24)
	b.Call(ebpf.HelperMapLookupElem)
	b.JmpImm(ebpf.OpJne, ebpf.R0, 1, "ret")
	b.LdxDW(ebpf.R7, ebpf.R10, -24)
	b.JmpReg(ebpf.OpJlt, ebpf.R9, ebpf.R7, "ret") // batch done, more remain
	// pconf[3] = 0: the program disables itself.
	b.StDWImm(ebpf.R10, -16, 3)
	b.StDWImm(ebpf.R10, -24, 0)
	b.Mov64Imm(ebpf.R1, pconfFD)
	b.Mov64Reg(ebpf.R2, ebpf.R10).Add64Imm(ebpf.R2, -16)
	b.Mov64Reg(ebpf.R3, ebpf.R10).Add64Imm(ebpf.R3, -24)
	b.Call(ebpf.HelperMapUpdateElem)
	b.Label("ret")
	b.Mov64Imm(ebpf.R0, 0)
	b.Exit()
	return b.MustProgram()
}
