package ebpf

import (
	"strings"
	"testing"
)

// Tiny instruction builders.
func mov64(dst Register, imm int32) Instruction {
	return Instruction{Op: ClassALU64 | OpMov | SrcK, Dst: dst, Imm: imm}
}
func movr(dst, src Register) Instruction {
	return Instruction{Op: ClassALU64 | OpMov | SrcX, Dst: dst, Src: src}
}
func alu64(op uint8, dst Register, imm int32) Instruction {
	return Instruction{Op: ClassALU64 | op | SrcK, Dst: dst, Imm: imm}
}
func alu64r(op uint8, dst, src Register) Instruction {
	return Instruction{Op: ClassALU64 | op | SrcX, Dst: dst, Src: src}
}
func jmp(op uint8, dst Register, imm int32, off int16) Instruction {
	return Instruction{Op: ClassJMP | op | SrcK, Dst: dst, Imm: imm, Off: off}
}
func jmpr(op uint8, dst, src Register, off int16) Instruction {
	return Instruction{Op: ClassJMP | op | SrcX, Dst: dst, Src: src, Off: off}
}
func stxdw(dst Register, off int16, src Register) Instruction {
	return Instruction{Op: ClassSTX | ModeMEM | SizeDW, Dst: dst, Src: src, Off: off}
}
func exit() Instruction { return Instruction{Op: ClassJMP | OpExit} }

func analyze(t *testing.T, insns []Instruction) *AnalysisResult {
	t.Helper()
	return analyzeInsns(insns, analysisOpts{})
}

func wantOK(t *testing.T, insns []Instruction) *AnalysisResult {
	t.Helper()
	r := analyze(t, insns)
	if !r.OK {
		t.Fatalf("rejected: %v", r.Err)
	}
	return r
}

func wantRejectInsns(t *testing.T, frag string, insns []Instruction) *AnalysisResult {
	t.Helper()
	r := analyze(t, insns)
	if r.OK {
		t.Fatalf("accepted; want rejection containing %q", frag)
	}
	if !strings.Contains(r.Err.Error(), frag) {
		t.Fatalf("error %q does not contain %q", r.Err, frag)
	}
	return r
}

func TestAnalyzeTrivial(t *testing.T) {
	r := wantOK(t, []Instruction{mov64(0, 7), exit()})
	if len(r.Branches) != 0 {
		t.Fatalf("unexpected branch facts: %v", r.Branches)
	}
}

func TestAnalyzeDeadFallEdge(t *testing.T) {
	// r0 = 5; if r0 == 5 goto exit; r0 = 99 (dead); exit
	r := wantOK(t, []Instruction{
		mov64(0, 5),
		jmp(OpJeq, 0, 5, 1),
		mov64(0, 99),
		exit(),
	})
	br, ok := r.Branches[1]
	if !ok || !br.FallDead || br.TakenDead {
		t.Fatalf("branch facts = %+v, want fall-dead at pc 1", r.Branches)
	}
	if r.Reachable[2] {
		t.Fatal("pc 2 should be unreachable")
	}
	var kinds []string
	for _, f := range r.Findings {
		kinds = append(kinds, f.Kind)
	}
	joined := strings.Join(kinds, ",")
	if !strings.Contains(joined, "infeasible-branch") || !strings.Contains(joined, "dead-code") {
		t.Fatalf("findings = %v, want infeasible-branch and dead-code", r.Findings)
	}
}

func TestAnalyzeDeadTakenEdge(t *testing.T) {
	// r0 = 3; if r0 > 5 goto +1 (never); exit; (dead) exit
	r := wantOK(t, []Instruction{
		mov64(0, 3),
		jmp(OpJgt, 0, 5, 1),
		exit(),
		exit(),
	})
	br, ok := r.Branches[1]
	if !ok || !br.TakenDead || br.FallDead {
		t.Fatalf("branch facts = %+v, want taken-dead at pc 1", r.Branches)
	}
	if r.Reachable[3] {
		t.Fatal("pc 3 should be unreachable")
	}
}

// TestAnalyzeDeadEdgeIntoInvalidCode is the strictly-larger program
// class: the only path into the garbage is infeasible, so the program
// is safe even though the dead region could never verify.
func TestAnalyzeDeadEdgeIntoInvalidCode(t *testing.T) {
	r := wantOK(t, []Instruction{
		mov64(0, 1),
		jmp(OpJne, 0, 1, 1), // never taken
		exit(),
		{Op: 0xff, Dst: 9}, // garbage, unreachable
	})
	if r.Reachable[3] {
		t.Fatal("garbage should be unreachable")
	}
	// Same shape, but with the edge feasible: must reject.
	wantRejectInsns(t, "unsupported", []Instruction{
		mov64(0, 1),
		jmp(OpJeq, 0, 1, 1),
		exit(),
		{Op: 0xff, Dst: 9},
	})
}

// TestAnalyzeBoundedLoop: a counted loop is accepted, and both edges
// of its back branch are live, so no instruction is dead.
func TestAnalyzeBoundedLoop(t *testing.T) {
	// r6 = 0; loop: r6 += 1; if r6 < 10 goto loop; r0 = r6; exit
	r := wantOK(t, []Instruction{
		mov64(6, 0),
		alu64(OpAdd, 6, 1),
		jmp(OpJlt, 6, 10, -2),
		movr(0, 6),
		exit(),
	})
	if len(r.Branches) != 0 || len(r.Findings) != 0 {
		t.Fatalf("branch facts %v, findings %v; want none", r.Branches, r.Findings)
	}
	for pc, ok := range r.Reachable {
		if !ok {
			t.Fatalf("pc %d unreachable", pc)
		}
	}
}

func TestAnalyzeVariableOffsetStackAccess(t *testing.T) {
	// r6 in [0, 63] proven by branch; store to fp-512+r6*8.
	prog := []Instruction{
		mov64(0, 0),
		mov64(6, 0),
		// loop:
		movr(2, 6),
		alu64(OpLsh, 2, 3),
		movr(3, 10),
		alu64(OpAdd, 3, -512),
		alu64r(OpAdd, 3, 2),
		stxdw(3, 0, 6),
		alu64(OpAdd, 6, 1),
		jmp(OpJlt, 6, 64, -8),
		exit(),
	}
	wantOK(t, prog)
	// One byte past the frame: the same program with 65 iterations
	// writes through fp+8 and must be rejected.
	bad := append([]Instruction{}, prog...)
	bad[9] = jmp(OpJlt, 6, 66, -8)
	wantRejectInsns(t, "not provably in frame", bad)
}

func TestAnalyzeUnboundedLoop(t *testing.T) {
	// r6 = unknown (R1 at entry); loop: r6 += 1; if r6 != 0 goto loop
	wantOK(t, []Instruction{
		mov64(0, 0),
		movr(6, 1),
		alu64(OpAdd, 6, 1),
		jmp(OpJne, 6, 0, -2),
		exit(),
	})
}

func TestAnalyzeJmp32Feasibility(t *testing.T) {
	// r0 = 0x1_0000_0005: the 64-bit value differs from 5, but JMP32
	// compares the low word, so the branch is always taken.
	r := wantOK(t, []Instruction{
		{Op: ClassLD | ModeIMM | SizeDW, Dst: 0, Imm: 5},
		{Imm: 1}, // upper half = 1
		{Op: ClassJMP32 | OpJeq | SrcK, Dst: 0, Imm: 5, Off: 1},
		mov64(0, 99),
		exit(),
	})
	br, ok := r.Branches[2]
	if !ok || !br.FallDead {
		t.Fatalf("branch facts = %+v, want fall-dead at pc 2 (JMP32 compares low words)", r.Branches)
	}
	// The 64-bit comparison on the same program must go the other way.
	r = wantOK(t, []Instruction{
		{Op: ClassLD | ModeIMM | SizeDW, Dst: 0, Imm: 5},
		{Imm: 1},
		jmp(OpJeq, 0, 5, 1),
		exit(),
		exit(),
	})
	if br := r.Branches[2]; !br.TakenDead {
		t.Fatalf("branch facts = %+v, want taken-dead at pc 2 (64-bit compare)", r.Branches)
	}
}

func TestAnalyzeJsetRefinement(t *testing.T) {
	// r1 unknown; if r1 & 0x10 goto set; r0=0; exit; set: r0=1; exit
	r := wantOK(t, []Instruction{
		jmp(OpJset, 1, 0x10, 2),
		mov64(0, 0),
		exit(),
		mov64(0, 1),
		exit(),
	})
	if len(r.Branches) != 0 {
		t.Fatalf("no dead edges expected: %v", r.Branches)
	}
	// With the bit known zero the taken edge dies.
	r = wantOK(t, []Instruction{
		mov64(1, 0x0f),
		jmp(OpJset, 1, 0x10, 2),
		mov64(0, 0),
		exit(),
		mov64(0, 1),
		exit(),
	})
	if br := r.Branches[1]; !br.TakenDead {
		t.Fatalf("branch facts = %+v, want taken-dead", r.Branches)
	}
}

func TestAnalyzeRejections(t *testing.T) {
	cases := []struct {
		name, frag string
		insns      []Instruction
	}{
		{"empty", "empty program", nil},
		{"uninit-read", "uninitialized register", []Instruction{movr(0, 6), exit()}},
		{"r0-at-exit", "R0 not initialized", []Instruction{exit()}},
		{"bad-register", "bad register", []Instruction{mov64(12, 0), exit()}},
		{"bad-src-register", "bad register", []Instruction{
			{Op: ClassALU64 | OpMov | SrcX, Dst: 0, Src: 14}, exit()}},
		{"write-fp", "read-only", []Instruction{mov64(10, 0), exit()}},
		{"div-zero-imm", "division by zero", []Instruction{mov64(0, 1), alu64(OpDiv, 0, 0), exit()}},
		{"falls-off", "falls off", []Instruction{mov64(0, 0)}},
		{"jump-off-program", "falls off", []Instruction{mov64(0, 0), jmp(OpJeq, 1, 0, 40), exit()}},
		{"scalar-deref", "scalar register", []Instruction{mov64(1, 8), stxdw(1, 0, 1), mov64(0, 0), exit()}},
		{"oob-store", "not provably in frame", []Instruction{stxdw(10, -520, 10), mov64(0, 0), exit()}},
		{"unknown-helper", "unknown helper", []Instruction{
			{Op: ClassJMP | OpCall, Imm: 99}, mov64(0, 0), exit()}},
		{"jmp32-exit", "64-bit JMP class", []Instruction{
			mov64(0, 0), {Op: ClassJMP32 | OpExit}}},
		{"store-uninit", "store of uninitialized", []Instruction{stxdw(10, -8, 6), mov64(0, 0), exit()}},
		{"jump-into-lddw", "upper half", []Instruction{
			{Op: ClassJMP | OpJa, Off: 1},
			{Op: ClassLD | ModeIMM | SizeDW, Dst: 0, Imm: 5},
			{Imm: 0},
			exit(),
		}},
		{"truncated-lddw", "truncated lddw", []Instruction{
			mov64(0, 0), {Op: ClassLD | ModeIMM | SizeDW, Dst: 0, Imm: 5}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantRejectInsns(t, tc.frag, tc.insns)
		})
	}
}

func TestAnalyzeUnboundedScalarDerefReported(t *testing.T) {
	// fp + unbounded scalar: the pointer survives, the access must not.
	r := wantRejectInsns(t, "not provably in frame", []Instruction{
		movr(3, 10),
		alu64r(OpAdd, 3, 1), // r1 unknown at entry
		stxdw(3, -8, 10),
		mov64(0, 0),
		exit(),
	})
	found := false
	for _, f := range r.Findings {
		if f.Kind == "unproven-access" {
			found = true
		}
	}
	if !found {
		t.Fatalf("findings = %v, want an unproven-access", r.Findings)
	}
}

func TestAnalyzeMapHelperDiscipline(t *testing.T) {
	opts := analysisOpts{
		ValidMapFD:  func(fd int64) bool { return fd == 3 },
		KnownHelper: func(id int32) bool { return id == 1 || id == 5 },
		MapHelper: func(id int32) (int, bool) {
			if id == 1 {
				return 2, true
			}
			return 0, false
		},
	}
	good := []Instruction{
		mov64(1, 3), // map fd
		movr(2, 10),
		alu64(OpAdd, 2, -8),
		stxdw(10, -8, 1),
		movr(3, 10),
		alu64(OpAdd, 3, -16),
		stxdw(10, -16, 1),
		{Op: ClassJMP | OpCall, Imm: 1},
		mov64(0, 0),
		exit(),
	}
	if r := analyzeInsns(good, opts); !r.OK {
		t.Fatalf("good map call rejected: %v", r.Err)
	}
	// Scalar in R1 instead of a map reference.
	bad := append([]Instruction{}, good...)
	bad[0] = mov64(1, 4) // not a registered fd
	if r := analyzeInsns(bad, opts); r.OK {
		t.Fatal("map helper with non-map R1 accepted")
	} else if !strings.Contains(r.Err.Msg, "map reference in R1") {
		t.Fatalf("unexpected error: %v", r.Err)
	}
	// Key pointer not provably in frame.
	bad2 := append([]Instruction{}, good...)
	bad2[2] = alu64(OpAdd, 2, 8)
	if r := analyzeInsns(bad2, opts); r.OK {
		t.Fatal("map helper with out-of-frame key accepted")
	}
	// Args are dead after the call.
	postRead := append(append([]Instruction{}, good[:8]...),
		movr(0, 2), exit())
	if r := analyzeInsns(postRead, opts); r.OK {
		t.Fatal("read of clobbered arg register accepted")
	}
}

func TestAnalyzeWideningConverges(t *testing.T) {
	// A loop whose induction variable never stabilizes without
	// widening (grows by 3 each round, bounded only by the budget).
	wantOK(t, []Instruction{
		mov64(0, 0),
		mov64(6, 0),
		alu64(OpAdd, 6, 3),
		jmpr(OpJne, 6, 1, -2), // compare against unknown r1
		exit(),
	})
}

func TestAnalyzePoisonedArgsAfterCall(t *testing.T) {
	opts := analysisOpts{KnownHelper: func(id int32) bool { return id == 5 }}
	// R6 survives the call, R1 does not.
	ok := []Instruction{
		mov64(6, 9),
		{Op: ClassJMP | OpCall, Imm: 5},
		movr(0, 6),
		exit(),
	}
	if r := analyzeInsns(ok, opts); !r.OK {
		t.Fatalf("callee-saved read rejected: %v", r.Err)
	}
	bad := []Instruction{
		mov64(1, 9),
		{Op: ClassJMP | OpCall, Imm: 5},
		movr(0, 1),
		exit(),
	}
	if r := analyzeInsns(bad, opts); r.OK {
		t.Fatal("caller-clobbered read accepted")
	}
}
