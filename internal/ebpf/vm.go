package ebpf

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// stackTop is the virtual address held by R10 (the frame pointer).
// Valid stack addresses are [stackTop-StackSize, stackTop). Using a
// fixed virtual base keeps pointer values plain uint64s, as on real
// hardware, while letting the VM and helpers bounds-check them.
const stackTop uint64 = 0x7fff_f000

// InsnBudget is the maximum number of instructions one program run may
// execute, mirroring the kernel's 1M-instruction complexity bound.
const InsnBudget = 1_000_000

// MaxProgramLen is the maximum number of instructions in a program.
const MaxProgramLen = 4096

// HelperFunc is the Go implementation of an eBPF helper or kfunc. It
// receives the call context (for stack and map access) and the five
// argument registers R1–R5, and returns the value placed in R0.
type HelperFunc func(ctx *CallContext, args [5]uint64) (uint64, error)

// HelperSpec describes a registered helper for the verifier and VM.
type HelperSpec struct {
	ID   int32
	Name string
	Fn   HelperFunc
}

// VM is an eBPF execution environment: a helper/kfunc registry plus a
// map file-descriptor table. One VM models one kernel's BPF subsystem;
// all programs attached anywhere in that kernel share it.
type VM struct {
	helpers map[int32]HelperSpec
	maps    map[int32]*Map
	nextFD  int32
	clock   Clock

	// TraceLog receives bpf_trace_printk output when non-nil.
	TraceLog func(msg string)
}

// NewVM returns a VM with the standard helpers (map access, ktime,
// trace_printk) pre-registered.
func NewVM() *VM {
	vm := &VM{
		helpers: make(map[int32]HelperSpec),
		maps:    make(map[int32]*Map),
		nextFD:  3, // fds 0-2 reserved, as ever
	}
	registerStandardHelpers(vm)
	return vm
}

// RegisterHelper installs a helper or kfunc under the given ID.
// Registering over an existing ID is an error: helper IDs are ABI.
func (vm *VM) RegisterHelper(id int32, name string, fn HelperFunc) error {
	if _, dup := vm.helpers[id]; dup {
		return fmt.Errorf("ebpf: helper id %d already registered", id)
	}
	vm.helpers[id] = HelperSpec{ID: id, Name: name, Fn: fn}
	return nil
}

// MustRegisterHelper is RegisterHelper but panics on error.
func (vm *VM) MustRegisterHelper(id int32, name string, fn HelperFunc) {
	if err := vm.RegisterHelper(id, name, fn); err != nil {
		panic(err)
	}
}

// Helper returns the helper registered under id.
func (vm *VM) Helper(id int32) (HelperSpec, bool) {
	h, ok := vm.helpers[id]
	return h, ok
}

// RegisterMap installs a map and returns its file descriptor, which
// programs embed via LdImm64.
func (vm *VM) RegisterMap(m *Map) int32 {
	fd := vm.nextFD
	vm.nextFD++
	vm.maps[fd] = m
	return fd
}

// MapByFD resolves a map file descriptor.
func (vm *VM) MapByFD(fd int32) (*Map, bool) {
	m, ok := vm.maps[fd]
	return m, ok
}

// Program is a loaded, verified eBPF program.
type Program struct {
	Name  string
	insns []Instruction
	dec   []decoded // pre-decoded text; see decode.go
	vm    *VM

	// mapCache memoizes map-FD resolution: a dense fd-indexed snapshot
	// of the VM's map table taken at load time, so helpers skip the
	// VM's hash lookup on the hot path. Sealed at Load (read-only
	// afterwards); fds registered later fall back to the VM table.
	mapCache []*Map

	// Enabled gates execution when the program is attached to a hook;
	// SnapBPF's prefetch program clears it after issuing the last
	// group ("the eBPF program will disable itself").
	Enabled bool

	// scratch is the reusable run state. A program belongs to one
	// simulated kernel, whose probe dispatch is sequential, so a single
	// buffer serves virtually every run; state's owner bit arbitrates
	// the rare concurrent Run (tests), which falls back to a fresh
	// allocation.
	scratch *runState

	// state packs the scratch-owner flag (bit 0) with the
	// completed-run count (bits 1+): a successful scratch run releases
	// the buffer and counts itself in one atomic add, which keeps the
	// per-fault fast path at two lock-prefixed instructions instead of
	// three (acquire, count, release).
	state atomic.Uint64
}

// Runs returns the number of completed (non-erroring) executions.
func (p *Program) Runs() int64 { return int64(p.state.Load() >> 1) }

// runState is the per-execution state: the call context, the register
// file and the 512-byte stack frame, kept together so one allocation
// (reused across runs) covers everything. The interpreter copies regs
// in at the start of a run and back out at exit, so the final register
// file stays inspectable (tests pin it).
type runState struct {
	ctx  CallContext
	regs [numRegisters]uint64
	// branchHook, when set, observes every conditional jump the
	// interpreter evaluates (pc, edge). Only InterpBranches sets it,
	// on a private state — normal runs never pay more than a nil
	// check per jump.
	branchHook func(pc int, taken bool)
	stack      [StackSize]byte
}

// Load verifies insns against the VM's helper and map tables and
// returns a runnable Program. This models the bpf(BPF_PROG_LOAD)
// syscall: an invalid program never becomes runnable. Loading also
// pre-decodes the instruction stream (decode.go) and snapshots the
// map table, so per-step re-parsing never happens at run time.
func (vm *VM) Load(name string, insns []Instruction) (*Program, error) {
	if err := Verify(insns, vm); err != nil {
		return nil, fmt.Errorf("ebpf: load %q: %w", name, err)
	}
	cp := make([]Instruction, len(insns))
	copy(cp, insns)
	p := &Program{Name: name, insns: cp, vm: vm, Enabled: true}
	p.dec = decodeProgram(cp, vm)
	p.mapCache = make([]*Map, vm.nextFD)
	for fd, m := range vm.maps {
		if fd >= 0 && int(fd) < len(p.mapCache) {
			p.mapCache[fd] = m
		}
	}
	return p, nil
}

// MustLoad is Load but panics on error.
func (vm *VM) MustLoad(name string, insns []Instruction) *Program {
	p, err := vm.Load(name, insns)
	if err != nil {
		panic(err)
	}
	return p
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.insns) }

// Instructions returns a copy of the program text.
func (p *Program) Instructions() []Instruction {
	cp := make([]Instruction, len(p.insns))
	copy(cp, p.insns)
	return cp
}

// CallContext is passed to helpers so they can access the calling
// program's stack (for pointer arguments) and the VM's maps.
type CallContext struct {
	VM    *VM
	Prog  *Program
	stack []byte

	// Env carries simulation-side state (e.g. the host kernel) so
	// kfuncs like snapbpf_prefetch can reach the page cache. It is
	// set per-run by the caller of Run via RunCtx.
	Env any
}

// Map resolves a map file descriptor through the calling program's
// load-time cache, falling back to the VM table for maps registered
// after the program loaded. Helpers use this instead of VM.MapByFD so
// the per-call hash lookup disappears from the kprobe hot path.
func (c *CallContext) Map(fd int32) (*Map, bool) {
	if p := c.Prog; p != nil && fd >= 0 && int(fd) < len(p.mapCache) {
		if m := p.mapCache[fd]; m != nil {
			return m, true
		}
	}
	return c.VM.MapByFD(fd)
}

// ReadStackU64 reads an 8-byte value at a stack virtual address.
func (c *CallContext) ReadStackU64(addr uint64) (uint64, error) {
	i, err := stackIndex(addr, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(c.stack[i:]), nil
}

// WriteStackU64 writes an 8-byte value at a stack virtual address.
func (c *CallContext) WriteStackU64(addr, v uint64) error {
	i, err := stackIndex(addr, 8)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(c.stack[i:], v)
	return nil
}

func stackIndex(addr uint64, size int) (int, error) {
	lo := stackTop - StackSize
	if addr < lo || addr+uint64(size) > stackTop {
		return 0, fmt.Errorf("ebpf: stack access out of bounds: addr=%#x size=%d", addr, size)
	}
	return int(addr - lo), nil
}

// Run executes the program with up to five u64 arguments in R1–R5 and
// returns R0. Env is made available to helpers via the CallContext.
//
// The dispatch loop walks the pre-decoded instruction cache
// (decode.go): no opcode bit-masking, immediate sign-extension, lddw
// reassembly or helper-table lookup happens per step. Run state (call
// context + registers + stack) is a single buffer reused across
// sequential runs; concurrent runs of one program fall back to a fresh
// buffer.
func (p *Program) Run(env any, args ...uint64) (uint64, error) {
	if len(args) > 5 {
		return 0, fmt.Errorf("ebpf: too many arguments (%d > 5)", len(args))
	}
	var st *runState
	scratch := false
	if s := p.state.Load(); s&1 == 0 && p.state.CompareAndSwap(s, s|1) {
		scratch = true
		if p.scratch == nil {
			p.scratch = p.newRunState()
		}
		st = p.scratch
		st.stack = [StackSize]byte{} // fresh runs see a zeroed frame
	} else {
		st = p.newRunState()
	}
	ret, err := p.start(st, env, args)
	// Release the scratch buffer and/or count the completed run. A
	// panicking helper skips this and orphans the scratch (later runs
	// stay correct on fresh buffers), which is fine: helper panics are
	// programming errors that kill the simulated kernel anyway.
	switch {
	case scratch && err == nil:
		p.state.Add(1) // clears the owner bit and counts, in one add
	case scratch:
		p.state.Add(^uint64(0)) // clears the owner bit; errors don't count
	case err == nil:
		p.state.Add(2)
	}
	return ret, err
}

// InterpBranches runs the program on the reference interpreter with
// hook observing every conditional jump it evaluates (the instruction
// pc and whether the jump was taken). The absint differential fuzzer
// uses this to check that edges the analysis declared infeasible are
// never executed. Always runs on a private machine state.
func (p *Program) InterpBranches(env any, hook func(pc int, taken bool), args ...uint64) (uint64, error) {
	if len(args) > 5 {
		return 0, fmt.Errorf("ebpf: too many arguments (%d > 5)", len(args))
	}
	st := p.newRunState()
	st.branchHook = hook
	return p.start(st, env, args)
}

// start loads the arguments, the frame pointer and env into st and
// runs the program on it.
func (p *Program) start(st *runState, env any, args []uint64) (uint64, error) {
	st.regs = [numRegisters]uint64{}
	for i, a := range args {
		st.regs[R1+Register(i)] = a
	}
	st.regs[R10] = stackTop
	st.ctx.Env = env
	return p.runInterp(st)
}

// newRunState allocates machine state wired to this program. The
// CallContext's VM/Prog/stack fields never change across runs, so they
// are set once here and only Env is written per run — the full
// struct assignment was four pointer writes (and their GC barriers) on
// every kprobe firing. The scratch state keeps the last run's Env
// reference alive until the next run; environments are long-lived
// kernel objects, so nothing of consequence is ever retained.
func (p *Program) newRunState() *runState {
	st := new(runState)
	st.ctx = CallContext{VM: p.vm, Prog: p, stack: st.stack[:]}
	return st
}

// runInterp is the dispatch loop: it runs the machine state in st from
// pc 0 until exit, an error or the instruction budget.
func (p *Program) runInterp(st *runState) (uint64, error) {
	regs := st.regs
	ctx := &st.ctx
	dec := p.dec
	if dec == nil {
		// Program constructed without Load (tests); decode on first use.
		dec = decodeProgram(p.insns, p.vm)
		p.dec = dec
	}
	pc := 0
	for steps := 0; ; steps++ {
		if steps >= InsnBudget {
			return 0, fmt.Errorf("ebpf: %s: instruction budget exceeded", p.Name)
		}
		if pc < 0 || pc >= len(dec) {
			return 0, fmt.Errorf("ebpf: %s: pc out of range: %d", p.Name, pc)
		}
		in := &dec[pc]

		switch in.kind {
		case decALU64:
			var src uint64
			if in.regSrc {
				src = regs[in.src]
			} else {
				src = uint64(in.imm)
			}
			dst, err := aluOp64(in.op, regs[in.dst], src)
			if err != nil {
				return 0, fmt.Errorf("ebpf: %s @%d: %w", p.Name, pc, err)
			}
			regs[in.dst] = dst
			pc++
		case decALU32:
			var src uint32
			if in.regSrc {
				src = uint32(regs[in.src])
			} else {
				src = uint32(in.imm)
			}
			dst, err := aluOp32(in.op, uint32(regs[in.dst]), src)
			if err != nil {
				return 0, fmt.Errorf("ebpf: %s @%d: %w", p.Name, pc, err)
			}
			// 32-bit ops zero the upper half, as on hardware.
			regs[in.dst] = uint64(dst)
			pc++
		case decLdImm64:
			regs[in.dst] = in.imm64
			pc += 2
		case decLdx:
			addr := regs[in.src] + uint64(int64(in.off))
			i, err := stackIndex(addr, int(in.size))
			if err != nil {
				return 0, fmt.Errorf("ebpf: %s @%d: %w", p.Name, pc, err)
			}
			regs[in.dst] = loadSized(st.stack[i:], int(in.size))
			pc++
		case decStx:
			addr := regs[in.dst] + uint64(int64(in.off))
			i, err := stackIndex(addr, int(in.size))
			if err != nil {
				return 0, fmt.Errorf("ebpf: %s @%d: %w", p.Name, pc, err)
			}
			storeSized(st.stack[i:], int(in.size), regs[in.src])
			pc++
		case decSt:
			addr := regs[in.dst] + uint64(int64(in.off))
			i, err := stackIndex(addr, int(in.size))
			if err != nil {
				return 0, fmt.Errorf("ebpf: %s @%d: %w", p.Name, pc, err)
			}
			storeSized(st.stack[i:], int(in.size), uint64(in.imm))
			pc++
		case decExit:
			st.regs = regs // expose the final register file (tests)
			return regs[R0], nil
		case decCall:
			if in.helper == nil {
				return 0, fmt.Errorf("ebpf: %s @%d: unknown helper %d", p.Name, pc, in.hid)
			}
			var hargs [5]uint64
			copy(hargs[:], regs[R1:R6])
			r0, err := in.helper(ctx, hargs)
			if err != nil {
				return 0, fmt.Errorf("ebpf: %s @%d: helper %s: %w", p.Name, pc, in.hname, err)
			}
			regs[R0] = r0
			// R1-R5 are caller-clobbered; poison them to catch
			// programs that slipped past verification.
			for r := R1; r <= R5; r++ {
				regs[r] = poison
			}
			pc++
		case decJa:
			pc += int(in.off)
		case decJump, decJump32:
			dst := regs[in.dst]
			var src uint64
			if in.regSrc {
				src = regs[in.src]
			} else {
				src = uint64(in.imm)
			}
			if in.kind == decJump32 {
				// JMP32 compares the low 32 bits; signed variants
				// sign-extend them.
				dst = uint64(int64(int32(uint32(dst))))
				src = uint64(int64(int32(uint32(src))))
			}
			taken, err := jumpTaken(in.op, dst, src)
			if err != nil {
				return 0, fmt.Errorf("ebpf: %s @%d: %w", p.Name, pc, err)
			}
			if st.branchHook != nil {
				st.branchHook(pc, taken)
			}
			if taken {
				pc += int(in.off)
			} else {
				pc++
			}
		default:
			return 0, fmt.Errorf("ebpf: %s @%d: unsupported instruction %s", p.Name, pc, p.insns[pc])
		}
	}
}

// poison is the value calls clobber R1-R5 with.
const poison = 0xdead_beef_dead_beef

func aluOp64(op uint8, dst, src uint64) (uint64, error) {
	switch op {
	case OpAdd:
		dst += src
	case OpSub:
		dst -= src
	case OpMul:
		dst *= src
	case OpDiv:
		if src == 0 {
			dst = 0 // kernel semantics: div by zero yields 0
		} else {
			dst /= src
		}
	case OpMod:
		if src == 0 {
			// kernel semantics: dst unchanged on mod-by-zero
		} else {
			dst %= src
		}
	case OpAnd:
		dst &= src
	case OpOr:
		dst |= src
	case OpXor:
		dst ^= src
	case OpLsh:
		dst <<= src & 63
	case OpRsh:
		dst >>= src & 63
	case OpArsh:
		dst = uint64(int64(dst) >> (src & 63))
	case OpNeg:
		dst = uint64(-int64(dst))
	case OpMov:
		dst = src
	default:
		return 0, fmt.Errorf("unsupported alu64 op %#x", op)
	}
	return dst, nil
}

func aluOp32(op uint8, dst, src uint32) (uint32, error) {
	switch op {
	case OpAdd:
		dst += src
	case OpSub:
		dst -= src
	case OpMul:
		dst *= src
	case OpDiv:
		if src == 0 {
			dst = 0
		} else {
			dst /= src
		}
	case OpMod:
		if src != 0 {
			dst %= src
		}
	case OpAnd:
		dst &= src
	case OpOr:
		dst |= src
	case OpXor:
		dst ^= src
	case OpLsh:
		dst <<= src & 31
	case OpRsh:
		dst >>= src & 31
	case OpArsh:
		dst = uint32(int32(dst) >> (src & 31))
	case OpNeg:
		dst = uint32(-int32(dst))
	case OpMov:
		dst = src
	default:
		return 0, fmt.Errorf("unsupported alu32 op %#x", op)
	}
	return dst, nil
}

func jumpTaken(op uint8, dst, src uint64) (bool, error) {
	switch op {
	case OpJeq:
		return dst == src, nil
	case OpJne:
		return dst != src, nil
	case OpJgt:
		return dst > src, nil
	case OpJge:
		return dst >= src, nil
	case OpJlt:
		return dst < src, nil
	case OpJle:
		return dst <= src, nil
	case OpJset:
		return dst&src != 0, nil
	case OpJsgt:
		return int64(dst) > int64(src), nil
	case OpJsge:
		return int64(dst) >= int64(src), nil
	case OpJslt:
		return int64(dst) < int64(src), nil
	case OpJsle:
		return int64(dst) <= int64(src), nil
	}
	return false, fmt.Errorf("unsupported jmp op %#x", op)
}

func loadSized(b []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

func storeSized(b []byte, size int, v uint64) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}
