// Package ebpf implements the eBPF execution environment that SnapBPF
// attaches to the simulated kernel: a bytecode ISA mirroring the Linux
// encoding, an assembler, a verifier, an interpreter, hash and array
// maps, and a helper/kfunc registry. The verifier and the interpreter
// both read the loaded []Instruction; there is no second instruction
// form.
//
// The verifier is one kernel-verifier-style abstract interpreter
// (absint*.go). It tracks, per register, a tnum (known-bits) domain
// plus signed and unsigned interval bounds and pointer provenance,
// runs a worklist fixpoint over the control-flow graph, and evaluates
// branch feasibility. VM.Analyze returns its full result for report
// mode.
//
// The SnapBPF capture and prefetch mechanisms (§3.1 of the paper) are
// written as real programs in this ISA: they are assembled with
// Builder, must pass Verify to be loaded, and execute in the
// interpreter on every firing of the add_to_page_cache_lru kprobe.
//
// # Deviations from the kernel ABI
//
// The environment is a faithful miniature, not a byte-for-byte clone.
// The intentional simplifications, chosen so the programs keep the
// same structure as their real counterparts:
//
//   - Kprobe context: programs receive up to five u64 arguments in
//     R1–R5 (the probed function's arguments) instead of a *pt_regs
//     they must decode with bpf_probe_read. This is the view BPF
//     trampolines/fentry provide on modern kernels.
//   - Maps hold u64 keys and u64 values. bpf_map_lookup_elem takes
//     (map_fd, key_ptr, value_ptr) and returns 1/0 for hit/miss,
//     writing through value_ptr, instead of returning a value pointer:
//     the VM has no general kernel address space for value pointers to
//     live in. Null-check-after-lookup control flow is preserved.
//   - Map references use the fd directly as an immediate (Mov64Imm or
//     LdImm64) rather than a relocated BPF_PSEUDO_MAP_FD; the verifier
//     still tracks which constants name registered maps and enforces
//     the kernel's argument discipline for map helpers (a map
//     reference in R1, in-frame stack pointers for key/value), so a
//     clobbered register can never reach bpf_map_*_elem — a property
//     the package's verifier-soundness fuzzer exercises.
//   - The verifier joins states at merge points and widens them to a
//     fixpoint instead of exploring each path, and it permits loops
//     it cannot bound (the paper targets Linux 6.3, whose verifier
//     accepts bounded loops); runaway loops are cut off at run time by
//     the interpreter's instruction budget, the analogue of the
//     kernel's 1M-instruction complexity bound.
//
// Everything else — the register file and calling convention, the
// 512-byte stack, the instruction encoding and semantics (including
// division-by-zero behaviour and 32-bit sub-register zeroing), the
// verifier's init/bounds/DAG discipline, and the self-disabling
// program lifecycle — follows Linux.
package ebpf
