package ebpf

import (
	"fmt"
	"strings"
)

// analysisOpts supplies the environment facts the analysis needs from
// the loader: which constants name registered maps and which helper
// ids resolve. All callbacks may be nil, in which case no constant
// names a map and every call is rejected.
type analysisOpts struct {
	// ValidMapFD reports whether fd names a registered map.
	ValidMapFD func(fd int64) bool
	// KnownHelper reports whether a call target id resolves.
	KnownHelper func(id int32) bool
	// MapHelper reports whether id is a map-access helper and how many
	// stack-pointer arguments follow the map reference in R1.
	MapHelper func(id int32) (ptrArgs int, ok bool)
}

// Branch records the statically dead edges of one conditional jump.
// At most one edge of a reachable branch can be dead.
type Branch struct {
	TakenDead bool
	FallDead  bool
}

// Finding is one report-mode observation tied to an instruction.
type Finding struct {
	PC   int
	Kind string // "dead-code", "infeasible-branch", "unproven-access", "illegal-insn"
	Msg  string
}

// AnalysisError is the first (in program order) reason the analysis
// cannot prove the program safe, with the abstract register state at
// that point.
type AnalysisError struct {
	PC    int
	Msg   string
	State string
}

func (e *AnalysisError) Error() string {
	return fmt.Sprintf("absint: insn %d: %s [%s]", e.PC, e.Msg, e.State)
}

// AnalysisResult is the full analysis outcome.
type AnalysisResult struct {
	// OK reports that every reachable instruction is legal and every
	// reachable memory access and helper argument is proven in
	// bounds: the program cannot fault at runtime (the dynamic
	// instruction budget remains the only permitted abort).
	OK  bool
	Err *AnalysisError
	// Reachable marks instructions some execution may reach (an
	// over-approximation; the lddw upper slot inherits its first
	// slot's reachability).
	Reachable []bool
	// Branches holds, per conditional-jump pc, the edges no
	// execution can take. Only jumps with at least one dead edge
	// appear.
	Branches map[int]Branch
	Findings []Finding
}

// state is the abstract machine state at one program point.
type state struct {
	regs [numRegisters]absVal
}

func (s *state) String() string {
	var b strings.Builder
	for r, v := range s.regs {
		if v.K == kindUninit {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%s", Register(r), v)
	}
	if b.Len() == 0 {
		return "all uninit"
	}
	return b.String()
}

func entryState() state {
	var st state
	for r := 1; r <= 5; r++ {
		st.regs[r] = unknownScalar()
	}
	st.regs[R10] = stackPtrVal(0)
	return st
}

// succ is one control-flow successor with the state that flows along
// the edge (refined by the branch condition where applicable).
type succ struct {
	pc int
	st state
}

type analysis struct {
	insns []Instruction
	opts  analysisOpts
	hi    []bool // second slots of lddw pairs; see markHiSlots
	seen  []*state
	joins []int // changed-join count per pc, for widening
	// out backs the successor slice step returns, so the fixpoint
	// allocates no slice per step.
	out [2]succ
}

// widenAfter is how many changed joins a program point absorbs before
// interval bounds are widened to extremes (the tnum converges on its
// own: its unknown-bit mask only ever grows).
const widenAfter = 8

// analyzeInsns runs the abstract interpretation over insns and
// returns the full result. It never panics on malformed input;
// anything it cannot decode or prove turns into findings and a non-OK
// result.
func analyzeInsns(insns []Instruction, opts analysisOpts) *AnalysisResult {
	res := &AnalysisResult{Reachable: make([]bool, len(insns)), Branches: map[int]Branch{}}
	fail := func(pc int, st *state, format string, args ...any) {
		dump := "no state"
		if st != nil {
			dump = st.String()
		}
		if res.Err == nil {
			res.Err = &AnalysisError{PC: pc, Msg: fmt.Sprintf(format, args...), State: dump}
		}
	}
	if len(insns) == 0 {
		fail(0, nil, "empty program")
		return res
	}
	if len(insns) > MaxProgramLen {
		fail(0, nil, "program too long: %d insns (max %d)", len(insns), MaxProgramLen)
		return res
	}

	a := &analysis{
		insns: insns,
		opts:  opts,
		hi:    markHiSlots(insns),
		seen:  make([]*state, len(insns)),
		joins: make([]int, len(insns)),
	}
	a.fixpoint()

	// Reachability: every pc with a fixpoint state, plus lddw upper
	// slots riding along with their first slot.
	for pc := range insns {
		if a.seen[pc] != nil {
			res.Reachable[pc] = true
			if insns[pc].Op == OpLdImm64 && pc+1 < len(insns) {
				res.Reachable[pc+1] = true
			}
		}
	}

	// Final check pass, on fixpoint states: the invariants only grow
	// during the fixpoint, so feasibility and provability verdicts
	// are meaningful only against the final states. Deterministic
	// program order keeps reports and the error stable.
	for pc := range insns {
		if a.seen[pc] == nil {
			continue
		}
		st := *a.seen[pc]
		succs, err := a.step(pc, st)
		if err != nil {
			kind := "unproven-access"
			if !strings.Contains(err.Msg, "access") && !strings.Contains(err.Msg, "helper argument") {
				kind = "illegal-insn"
			}
			res.Findings = append(res.Findings, Finding{PC: pc, Kind: kind, Msg: err.Msg})
			if res.Err == nil {
				res.Err = err
			}
			continue
		}
		in := insns[pc]
		if isCondJump(in) {
			br := Branch{TakenDead: true, FallDead: true}
			taken := pc + 1 + int(in.Off)
			for _, s := range succs {
				if s.pc == taken {
					br.TakenDead = false
				}
				if s.pc == pc+1 {
					br.FallDead = false
				}
			}
			// A taken edge that coincides with the fall-through is
			// never prunable information.
			if taken == pc+1 {
				br = Branch{}
			}
			if br.TakenDead || br.FallDead {
				res.Branches[pc] = br
				edge := "taken"
				if br.FallDead {
					edge = "fall-through"
				}
				res.Findings = append(res.Findings, Finding{
					PC: pc, Kind: "infeasible-branch",
					Msg: fmt.Sprintf("%s edge is infeasible (%s)", edge, st.String()),
				})
			}
		}
	}

	// Dead-code findings, coalesced into ranges. The lddw upper slot
	// never counts separately.
	for pc := 0; pc < len(insns); {
		if res.Reachable[pc] {
			pc++
			continue
		}
		start := pc
		for pc < len(insns) && !res.Reachable[pc] {
			pc++
		}
		res.Findings = append(res.Findings, Finding{
			PC: start, Kind: "dead-code",
			Msg: fmt.Sprintf("instructions %d..%d are unreachable", start, pc-1),
		})
	}

	res.OK = res.Err == nil
	return res
}

// markHiSlots scans the program linearly: the slot after a
// well-formed lddw first slot is its upper half and is never examined
// as an instruction of its own.
func markHiSlots(insns []Instruction) []bool {
	hi := make([]bool, len(insns))
	for pc := 0; pc < len(insns); pc++ {
		if hi[pc] {
			continue
		}
		if insns[pc].Class() == ClassLD && insns[pc].Op == OpLdImm64 && pc+1 < len(insns) {
			hi[pc+1] = true
		}
	}
	return hi
}

func isCondJump(in Instruction) bool {
	switch in.Class() {
	case ClassJMP, ClassJMP32:
		switch in.aluOp() {
		case OpJa, OpCall, OpExit:
			return false
		}
		return true
	}
	return false
}

// fixpoint runs the worklist iteration. Instructions that fail a
// check are treated as terminal (nothing flows past them); the final
// pass reports them.
func (a *analysis) fixpoint() {
	entry := entryState()
	a.seen[0] = &entry
	work := []int{0}
	inWork := make([]bool, len(a.insns))
	inWork[0] = true
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[pc] = false
		succs, err := a.step(pc, *a.seen[pc])
		if err != nil {
			continue
		}
		for _, s := range succs {
			if a.flow(s.pc, s.st) && !inWork[s.pc] {
				work = append(work, s.pc)
				inWork[s.pc] = true
			}
		}
	}
}

// flow joins st into the state at pc, reporting whether it changed.
func (a *analysis) flow(pc int, st state) bool {
	old := a.seen[pc]
	if old == nil {
		cp := st
		a.seen[pc] = &cp
		return true
	}
	changed := false
	var merged state
	for i := range old.regs {
		merged.regs[i] = joinVal(old.regs[i], st.regs[i])
		if merged.regs[i] != old.regs[i] {
			changed = true
		}
	}
	if !changed {
		return false
	}
	a.joins[pc]++
	if a.joins[pc] > widenAfter {
		for i := range merged.regs {
			merged.regs[i] = widen(old.regs[i], merged.regs[i])
		}
	}
	*a.seen[pc] = merged
	return true
}

// checkTarget validates a control transfer destination the way the
// runtime dispatch loop would experience it.
func (a *analysis) checkTarget(pc, target int, st *state) *AnalysisError {
	if target < 0 || target >= len(a.insns) {
		return &AnalysisError{PC: pc, Msg: fmt.Sprintf("control flow falls off the program (pc=%d)", target), State: st.String()}
	}
	if a.hi[target] {
		return &AnalysisError{PC: pc, Msg: fmt.Sprintf("jump into the upper half of a lddw (pc=%d)", target), State: st.String()}
	}
	return nil
}

// step abstractly executes the instruction at pc over st, returning
// the feasible successors with their edge states, or the reason the
// instruction cannot be proven safe. It carries the verifier's static
// checks and mirrors the interpreter's dynamic semantics. The returned
// slice aliases a.out: the next step call overwrites it.
func (a *analysis) step(pc int, st state) ([]succ, *AnalysisError) {
	in := a.insns[pc]
	fail := func(format string, args ...any) ([]succ, *AnalysisError) {
		return nil, &AnalysisError{PC: pc, Msg: fmt.Sprintf(format, args...), State: st.String()}
	}
	if a.hi[pc] {
		return fail("fell into the upper half of a lddw")
	}
	one := func(target int) ([]succ, *AnalysisError) {
		if err := a.checkTarget(pc, target, &st); err != nil {
			return nil, err
		}
		a.out[0] = succ{pc: target, st: st}
		return a.out[:1], nil
	}

	switch in.Class() {
	case ClassALU64, ClassALU:
		if in.Dst >= numRegisters || (in.usesRegSrc() && in.Src >= numRegisters) {
			return fail("bad register")
		}
		if in.Dst == R10 {
			return fail("R10 is read-only")
		}
		op := in.aluOp()
		if op > OpArsh {
			return fail("unsupported alu op %#x", op)
		}
		if in.usesRegSrc() && st.regs[in.Src].K == kindUninit {
			return fail("read of uninitialized register r%d", in.Src)
		}
		if op != OpMov && st.regs[in.Dst].K == kindUninit {
			return fail("read of uninitialized register r%d", in.Dst)
		}
		if (op == OpDiv || op == OpMod) && !in.usesRegSrc() && in.Imm == 0 {
			return fail("division by zero immediate")
		}
		st.regs[in.Dst] = a.aluXfer(in, st)
		return one(pc + 1)

	case ClassLD:
		if in.Op != OpLdImm64 {
			return fail("unsupported LD opcode %#x", in.Op)
		}
		if pc+1 >= len(a.insns) {
			return fail("truncated lddw")
		}
		if a.insns[pc+1].Op != 0 {
			return fail("lddw second slot has nonzero opcode")
		}
		if in.Dst >= numRegisters || in.Dst == R10 {
			return fail("bad lddw destination")
		}
		imm64 := uint64(uint32(in.Imm)) | uint64(uint32(a.insns[pc+1].Imm))<<32
		if a.insns[pc+1].Imm == 0 && a.isMapFD(int64(uint32(in.Imm))) {
			st.regs[in.Dst] = mapConstVal(int64(uint32(in.Imm)))
		} else {
			st.regs[in.Dst] = constVal(imm64)
		}
		return one(pc + 2)

	case ClassLDX:
		if in.size() == 0 {
			return fail("bad size")
		}
		if in.Dst >= numRegisters || in.Dst == R10 || in.Src >= numRegisters {
			return fail("bad register")
		}
		if msg := proveStackWindow(st.regs[in.Src], int64(in.Off), in.size()); msg != "" {
			return fail("%s", msg)
		}
		// Stack contents are not tracked: a load yields an unknown
		// scalar (never a pointer).
		st.regs[in.Dst] = unknownScalar()
		return one(pc + 1)

	case ClassSTX:
		if in.size() == 0 {
			return fail("bad size")
		}
		if in.Dst >= numRegisters || in.Src >= numRegisters {
			return fail("bad register")
		}
		if st.regs[in.Src].K == kindUninit {
			return fail("store of uninitialized register r%d", in.Src)
		}
		if msg := proveStackWindow(st.regs[in.Dst], int64(in.Off), in.size()); msg != "" {
			return fail("%s", msg)
		}
		return one(pc + 1)

	case ClassST:
		if in.size() == 0 {
			return fail("bad size")
		}
		if in.Dst >= numRegisters {
			return fail("bad register")
		}
		if msg := proveStackWindow(st.regs[in.Dst], int64(in.Off), in.size()); msg != "" {
			return fail("%s", msg)
		}
		return one(pc + 1)

	case ClassJMP, ClassJMP32:
		if in.Class() == ClassJMP32 {
			switch in.aluOp() {
			case OpExit, OpCall, OpJa:
				return fail("exit/call/ja must use the 64-bit JMP class")
			}
		}
		switch in.aluOp() {
		case OpExit:
			if st.regs[0].K == kindUninit {
				return fail("R0 not initialized at exit")
			}
			return nil, nil
		case OpCall:
			return a.stepCall(pc, st)
		case OpJa:
			return one(pc + 1 + int(in.Off))
		default:
			return a.stepJump(pc, st)
		}
	}
	return fail("unsupported instruction class %#x", in.Class())
}

func (a *analysis) isMapFD(fd int64) bool {
	return a.opts.ValidMapFD != nil && fd >= 0 && fd <= 1<<31-1 && a.opts.ValidMapFD(fd)
}

func (a *analysis) stepCall(pc int, st state) ([]succ, *AnalysisError) {
	in := a.insns[pc]
	fail := func(format string, args ...any) ([]succ, *AnalysisError) {
		return nil, &AnalysisError{PC: pc, Msg: fmt.Sprintf(format, args...), State: st.String()}
	}
	if a.opts.KnownHelper == nil || !a.opts.KnownHelper(in.Imm) {
		return fail("unknown helper %d", in.Imm)
	}
	if a.opts.MapHelper != nil {
		if ptrArgs, ok := a.opts.MapHelper(in.Imm); ok {
			// The kernel's ARG_CONST_MAP_PTR / ARG_PTR_TO_MAP_KEY
			// discipline, proven over abstract values: R1 must name a
			// map, the pointer arguments must be provably-in-frame
			// 8-byte windows (the helpers read/write u64 through them).
			if st.regs[1].K != kindMapConst {
				return fail("map helper requires a map reference in R1 (got %s)", st.regs[1])
			}
			for arg := 0; arg < ptrArgs; arg++ {
				r := 2 + arg
				if msg := proveStackWindow(st.regs[r], 0, 8); msg != "" {
					return fail("map helper argument r%d: %s", r, msg)
				}
			}
		}
	}
	// The interpreter clobbers R1–R5 with a poison constant; as a
	// policy matter (matching the kernel verifier) the argument
	// registers become unreadable rather than known-poison, so
	// post-call reads of dead args stay rejected.
	st.regs[0] = unknownScalar()
	for r := 1; r <= 5; r++ {
		st.regs[r] = uninitVal()
	}
	if err := a.checkTarget(pc, pc+1, &st); err != nil {
		return nil, err
	}
	a.out[0] = succ{pc: pc + 1, st: st}
	return a.out[:1], nil
}

func (a *analysis) stepJump(pc int, st state) ([]succ, *AnalysisError) {
	in := a.insns[pc]
	fail := func(format string, args ...any) ([]succ, *AnalysisError) {
		return nil, &AnalysisError{PC: pc, Msg: fmt.Sprintf(format, args...), State: st.String()}
	}
	op := in.aluOp()
	if op > OpJsle {
		return fail("unsupported jmp op %#x", op)
	}
	if in.Dst >= numRegisters || (in.usesRegSrc() && in.Src >= numRegisters) {
		return fail("register out of range in conditional jump")
	}
	if st.regs[in.Dst].K == kindUninit {
		return fail("read of uninitialized register r%d", in.Dst)
	}
	if in.usesRegSrc() && st.regs[in.Src].K == kindUninit {
		return fail("read of uninitialized register r%d", in.Src)
	}

	d := scalarView(st.regs[in.Dst])
	var s absVal
	if in.usesRegSrc() {
		s = scalarView(st.regs[in.Src])
	} else {
		s = constVal(uint64(int64(in.Imm)))
	}
	j32 := in.Class() == ClassJMP32
	if j32 {
		// The interpreter compares the sign-extended low words.
		d = sext32(low32(d))
		if in.usesRegSrc() {
			s = sext32(low32(s))
		} else {
			s = constVal(uint64(int64(int32(in.Imm))))
		}
	}

	edge := func(target int, taken bool) (succ, *AnalysisError, bool) {
		nd, ns, feasible := refineCond(op, d, s, taken)
		if !feasible {
			return succ{}, nil, false
		}
		est := st
		if !j32 {
			// Write the branch facts back for plain scalars; pointer
			// and map values keep their provenance untouched.
			if est.regs[in.Dst].K == kindScalar {
				est.regs[in.Dst] = nd
			}
			if in.usesRegSrc() && est.regs[in.Src].K == kindScalar {
				est.regs[in.Src] = ns
			}
		}
		if err := a.checkTarget(pc, target, &est); err != nil {
			return succ{}, err, true
		}
		return succ{pc: target, st: est}, nil, true
	}

	succs := a.out[:0]
	takenSucc, errT, feasT := edge(pc+1+int(in.Off), true)
	fallSucc, errF, feasF := edge(pc+1, false)
	if !feasT && !feasF {
		// Both edges refuted can only come from an (impossible) empty
		// state; degrade soundly to "both feasible, unrefined".
		est := st
		if err := a.checkTarget(pc, pc+1+int(in.Off), &est); err != nil {
			return nil, err
		}
		if err := a.checkTarget(pc, pc+1, &est); err != nil {
			return nil, err
		}
		a.out = [2]succ{{pc: pc + 1 + int(in.Off), st: st}, {pc: pc + 1, st: st}}
		return a.out[:], nil
	}
	if feasT {
		if errT != nil {
			return nil, errT
		}
		succs = append(succs, takenSucc)
	}
	if feasF {
		if errF != nil {
			return nil, errF
		}
		succs = append(succs, fallSucc)
	}
	return succs, nil
}

// aluXfer computes the new value of the destination register for a
// validated ALU instruction.
func (a *analysis) aluXfer(in Instruction, st state) absVal {
	op := in.aluOp()
	d := st.regs[in.Dst]
	if in.Class() == ClassALU {
		// 32-bit ops compute on the low words and zero-extend,
		// truncating pointers into scalars.
		d32 := low32(scalarView(d))
		var s32 absVal
		if in.usesRegSrc() {
			s32 = low32(scalarView(st.regs[in.Src]))
		} else {
			s32 = constVal(uint64(uint32(in.Imm)))
		}
		return alu32Scalar(op, d32, s32)
	}

	var s absVal
	srcIsPtr := false
	if in.usesRegSrc() {
		s = st.regs[in.Src]
		srcIsPtr = s.K != kindScalar
	} else {
		s = constVal(uint64(int64(in.Imm)))
	}

	switch op {
	case OpMov:
		if !in.usesRegSrc() {
			// A constant move that names a registered map becomes a
			// map reference (the kernel's CONST_PTR_TO_MAP).
			if a.isMapFD(int64(in.Imm)) {
				return mapConstVal(int64(in.Imm))
			}
			return constVal(uint64(int64(in.Imm)))
		}
		return s
	case OpAdd, OpSub:
		if d.K == kindStackPtr && !srcIsPtr {
			// Pointer ± scalar keeps provenance; the variable part
			// accumulates into the addend.
			ad := addendOf(d)
			if op == OpAdd {
				ad = aAdd(ad, s)
			} else {
				ad = aSub(ad, s)
			}
			ad.K = kindStackPtr
			ad.Off = d.Off
			return ad
		}
	}
	return alu64Scalar(op, scalarView(d), scalarView(s))
}

// alu64Scalar is the 64-bit scalar transfer, mirroring aluOp64.
func alu64Scalar(op uint8, d, s absVal) absVal {
	if dc, ok := d.IsConst(); ok {
		if sc, ok2 := s.IsConst(); ok2 {
			return constVal(concrete64(op, dc, sc))
		}
	}
	switch op {
	case OpAdd:
		return aAdd(d, s)
	case OpSub:
		return aSub(d, s)
	case OpMul:
		return aMul(d, s)
	case OpDiv:
		return aDiv(d, s)
	case OpMod:
		return aMod(d, s)
	case OpAnd:
		return aAnd(d, s)
	case OpOr:
		return aOr(d, s)
	case OpXor:
		return aXor(d, s)
	case OpLsh:
		return aLsh(d, s)
	case OpRsh:
		return aRsh(d, s)
	case OpArsh:
		return aArsh(d, s)
	case OpNeg:
		return aNeg(d)
	case OpMov:
		return s
	}
	return unknownScalar()
}

// concrete64 is the interpreter's aluOp64 on two known values. Every
// op the analysis accepts is one aluOp64 implements.
func concrete64(op uint8, dst, src uint64) uint64 {
	v, _ := aluOp64(op, dst, src)
	return v
}

// alu32Scalar is the 32-bit transfer: operands are low32 views, the
// result lands zero-extended in [0, 2^32), mirroring aluOp32.
func alu32Scalar(op uint8, d, s absVal) absVal {
	if dc, ok := d.IsConst(); ok {
		if sc, ok2 := s.IsConst(); ok2 {
			return constVal(uint64(concrete32(op, uint32(dc), uint32(sc))))
		}
	}
	switch op {
	case OpAdd:
		return trunc32(aAdd(d, s))
	case OpSub:
		return trunc32(aSub(d, s))
	case OpMul:
		return trunc32(aMul(d, s))
	case OpDiv:
		return trunc32(aDiv(d, s))
	case OpMod:
		return trunc32(aMod(d, s))
	case OpAnd:
		return trunc32(aAnd(d, s))
	case OpOr:
		return trunc32(aOr(d, s))
	case OpXor:
		return trunc32(aXor(d, s))
	case OpLsh:
		if c, ok := s.IsConst(); ok {
			return trunc32(aLsh(d, constVal(c&31)))
		}
	case OpRsh:
		if c, ok := s.IsConst(); ok {
			return trunc32(aRsh(d, constVal(c&31)))
		}
	case OpArsh:
		if c, ok := s.IsConst(); ok {
			return trunc32(aArsh(sext32(d), constVal(c&31)))
		}
	case OpMov:
		return s
	}
	return trunc32(unknownScalar())
}

// concrete32 is the interpreter's aluOp32 on two known values.
func concrete32(op uint8, dst, src uint32) uint32 {
	v, _ := aluOp32(op, dst, src)
	return v
}

// proveStackWindow proves a [off+min, off+max+size) byte window
// through v lies inside the 512-byte frame for every concrete value
// of v — the static counterpart of the runtime stackIndex check.
// Returns "" when proven, else the reason.
func proveStackWindow(v absVal, off int64, size int) string {
	switch v.K {
	case kindUninit:
		return "memory access through uninitialized register"
	case kindScalar:
		return fmt.Sprintf("memory access through scalar register (value %s)", v)
	case kindMapConst:
		return "memory access through a map reference"
	}
	ad := addendOf(v)
	const lim = int64(1) << 47
	if ad.Smin < -lim || ad.Smax > lim || v.Off < -lim || v.Off > lim {
		return fmt.Sprintf("stack access not provably in frame: pointer offset unbounded (%s)", v)
	}
	lo := v.Off + off + ad.Smin
	hi := v.Off + off + ad.Smax + int64(size)
	if lo < -StackSize || hi > 0 {
		return fmt.Sprintf("stack access not provably in frame: fp%+d..fp%+d (frame is [fp-%d, fp)), pointer %s",
			lo, hi, StackSize, v)
	}
	return ""
}
