package ebpf

import (
	"encoding/binary"
	"fmt"
	"sync"
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
	maps    []*Map // indexed by fd; fds 0-2 stay nil
	clock   Clock

	// TraceLog receives bpf_trace_printk output when non-nil.
	TraceLog func(msg string)
}

// NewVM returns a VM with the standard helpers (map access, ktime,
// trace_printk) pre-registered.
func NewVM() *VM {
	vm := &VM{
		helpers: make(map[int32]HelperSpec),
		maps:    make([]*Map, 3), // fds 0-2 reserved, as ever
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
	vm.maps = append(vm.maps, m)
	return int32(len(vm.maps) - 1)
}

// MapByFD resolves a map file descriptor.
func (vm *VM) MapByFD(fd int32) (*Map, bool) {
	if fd < 0 || int(fd) >= len(vm.maps) || vm.maps[fd] == nil {
		return nil, false
	}
	return vm.maps[fd], true
}

// Program is a loaded, verified eBPF program.
type Program struct {
	Name  string
	insns []Instruction
	vm    *VM

	// Enabled gates execution when the program is attached to a hook;
	// SnapBPF's prefetch program clears it after issuing the last
	// group ("the eBPF program will disable itself").
	Enabled bool

	// scratch is the reusable run state, guarded by mu. A program
	// belongs to one simulated kernel, whose probe dispatch is
	// sequential, so a single buffer serves virtually every run; a
	// Run that finds mu held (concurrent runs, in tests) uses a fresh
	// allocation instead.
	mu      sync.Mutex
	scratch *runState

	runs atomic.Int64 // completed (non-erroring) runs
}

// Runs returns the number of completed (non-erroring) executions.
func (p *Program) Runs() int64 { return p.runs.Load() }

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
// syscall: an invalid program never becomes runnable. The program
// keeps its own copy of insns, which the interpreter runs as is.
func (vm *VM) Load(name string, insns []Instruction) (*Program, error) {
	if err := Verify(insns, vm); err != nil {
		return nil, fmt.Errorf("ebpf: load %q: %w", name, err)
	}
	cp := make([]Instruction, len(insns))
	copy(cp, insns)
	return &Program{Name: name, insns: cp, vm: vm, Enabled: true}, nil
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
	stack []byte

	// Env carries simulation-side state (e.g. the host kernel) so
	// kfuncs like snapbpf_prefetch can reach the page cache. It is
	// set per-run by the caller of Run via RunCtx.
	Env any
}

// Map resolves a map file descriptor in the calling VM's table.
func (c *CallContext) Map(fd int32) (*Map, bool) { return c.VM.MapByFD(fd) }

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
// Run state (call context + registers + stack) is a single buffer
// reused across sequential runs; concurrent runs of one program fall
// back to a fresh buffer. The buffer is released by defer, so a
// panicking helper does not orphan it.
func (p *Program) Run(env any, args ...uint64) (uint64, error) {
	if len(args) > 5 {
		return 0, fmt.Errorf("ebpf: too many arguments (%d > 5)", len(args))
	}
	var st *runState
	if p.mu.TryLock() {
		defer p.mu.Unlock()
		if p.scratch == nil {
			p.scratch = p.newRunState()
		}
		st = p.scratch
		st.stack = [StackSize]byte{} // fresh runs see a zeroed frame
	} else {
		st = p.newRunState()
	}
	ret, err := p.start(st, env, args)
	if err == nil {
		p.runs.Add(1)
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
// CallContext's VM and stack fields never change across runs, so they
// are set once here and only Env is written per run. The scratch state keeps the last run's Env
// reference alive until the next run; environments are long-lived
// kernel objects, so nothing of consequence is ever retained.
func (p *Program) newRunState() *runState {
	st := new(runState)
	st.ctx = CallContext{VM: p.vm, stack: st.stack[:]}
	return st
}

// runInterp is the dispatch loop: it runs the machine state in st from
// pc 0 until exit, an error or the instruction budget, decoding each
// instruction's fields as it executes it.
func (p *Program) runInterp(st *runState) (uint64, error) {
	regs := st.regs
	insns := p.insns
	pc := 0
	for steps := 0; ; steps++ {
		if steps >= InsnBudget {
			return 0, fmt.Errorf("ebpf: %s: instruction budget exceeded", p.Name)
		}
		if pc < 0 || pc >= len(insns) {
			return 0, fmt.Errorf("ebpf: %s: pc out of range: %d", p.Name, pc)
		}
		in := insns[pc]

		switch in.Class() {
		case ClassALU64:
			src := uint64(int64(in.Imm))
			if in.usesRegSrc() {
				src = regs[in.Src]
			}
			dst, err := aluOp64(in.aluOp(), regs[in.Dst], src)
			if err != nil {
				return 0, fmt.Errorf("ebpf: %s @%d: %w", p.Name, pc, err)
			}
			regs[in.Dst] = dst
			pc++
		case ClassALU:
			src := uint32(in.Imm)
			if in.usesRegSrc() {
				src = uint32(regs[in.Src])
			}
			dst, err := aluOp32(in.aluOp(), uint32(regs[in.Dst]), src)
			if err != nil {
				return 0, fmt.Errorf("ebpf: %s @%d: %w", p.Name, pc, err)
			}
			// 32-bit ops zero the upper half, as on hardware.
			regs[in.Dst] = uint64(dst)
			pc++
		case ClassLD:
			// Only the first slot of a lddw executes; its upper slot
			// (Op 0) is never a valid target.
			if in.Op != OpLdImm64 || pc+1 >= len(insns) {
				return 0, fmt.Errorf("ebpf: %s @%d: unsupported instruction %s", p.Name, pc, in)
			}
			regs[in.Dst] = uint64(uint32(in.Imm)) | uint64(uint32(insns[pc+1].Imm))<<32
			pc += 2
		case ClassLDX:
			addr := regs[in.Src] + uint64(int64(in.Off))
			i, err := stackIndex(addr, in.size())
			if err != nil {
				return 0, fmt.Errorf("ebpf: %s @%d: %w", p.Name, pc, err)
			}
			regs[in.Dst] = loadSized(st.stack[i:], in.size())
			pc++
		case ClassSTX, ClassST:
			addr := regs[in.Dst] + uint64(int64(in.Off))
			i, err := stackIndex(addr, in.size())
			if err != nil {
				return 0, fmt.Errorf("ebpf: %s @%d: %w", p.Name, pc, err)
			}
			v := uint64(int64(in.Imm))
			if in.Class() == ClassSTX {
				v = regs[in.Src]
			}
			storeSized(st.stack[i:], in.size(), v)
			pc++
		case ClassJMP, ClassJMP32:
			switch op := in.aluOp(); op {
			case OpExit:
				st.regs = regs // expose the final register file (tests)
				return regs[R0], nil
			case OpCall:
				h, ok := p.vm.helpers[in.Imm]
				if !ok {
					return 0, fmt.Errorf("ebpf: %s @%d: unknown helper %d", p.Name, pc, in.Imm)
				}
				var hargs [5]uint64
				copy(hargs[:], regs[R1:R6])
				r0, err := h.Fn(&st.ctx, hargs)
				if err != nil {
					return 0, fmt.Errorf("ebpf: %s @%d: helper %s: %w", p.Name, pc, h.Name, err)
				}
				regs[R0] = r0
				// R1-R5 are caller-clobbered; poison them to catch
				// programs that slipped past verification.
				for r := R1; r <= R5; r++ {
					regs[r] = poison
				}
				pc++
			case OpJa:
				pc += 1 + int(in.Off)
			default:
				dst := regs[in.Dst]
				src := uint64(int64(in.Imm))
				if in.usesRegSrc() {
					src = regs[in.Src]
				}
				if in.Class() == ClassJMP32 {
					// JMP32 compares the low 32 bits; signed variants
					// sign-extend them.
					dst = uint64(int64(int32(uint32(dst))))
					src = uint64(int64(int32(uint32(src))))
				}
				taken, err := jumpTaken(op, dst, src)
				if err != nil {
					return 0, fmt.Errorf("ebpf: %s @%d: %w", p.Name, pc, err)
				}
				if st.branchHook != nil {
					st.branchHook(pc, taken)
				}
				if taken {
					pc += 1 + int(in.Off)
				} else {
					pc++
				}
			}
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
