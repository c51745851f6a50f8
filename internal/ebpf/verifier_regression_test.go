package ebpf

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Pinned verdicts of Verify over regressionCorpus: the accepted count and
// the SHA-256 of the accept bit vector (bit i, LSB first within each
// byte, set when program i is accepted). They were recorded when
// Verify still ran a structural pass before the abstract interpreter;
// the one-pass verifier reproduces them exactly.
const (
	pinnedPrograms = 50407
	pinnedAccepted = 9859
	pinnedVerdicts = "10d1b09efb521e7a80d14539f2ea9e076f7ae10963462af20e7538261ed4b826"
)

// TestVerifierRegression pins which programs Verify accepts over a
// broad corpus — hand-written programs from the test suites, the
// committed FuzzVerifier corpus, and 50,400 generator programs — so
// a change to the analysis cannot move a verdict unnoticed. Every
// accepted program must also load and run without taking an edge the
// analysis declared dead, and without a budget abort when the
// analysis bounds its cost within the budget. Every rejection must be
// a *VerifyError naming an instruction of the program.
func TestVerifierRegression(t *testing.T) {
	corpus := regressionCorpus(t)
	if len(corpus) != pinnedPrograms {
		t.Fatalf("corpus has %d programs, pinned %d", len(corpus), pinnedPrograms)
	}

	vm := NewVM()
	vm.RegisterMap(MustNewMap(MapTypeHash, "fuzz", 1024))

	bits := make([]byte, (len(corpus)+7)/8)
	accepted := 0
	for i, insns := range corpus {
		err := Verify(insns, vm)
		if err == nil {
			accepted++
			bits[i/8] |= 1 << (i % 8)
			assertUpgradeRunsSound(t, insns)
			continue
		}
		var ve *VerifyError
		if !errors.As(err, &ve) || ve.PC < 0 || (len(insns) > 0 && ve.PC >= len(insns)) {
			t.Fatalf("program %d: rejection %v is not a *VerifyError inside the program", i, err)
		}
	}
	sum := sha256.Sum256(bits)
	if accepted != pinnedAccepted || hex.EncodeToString(sum[:]) != pinnedVerdicts {
		t.Fatalf("verdicts drifted: %d accepted, digest %x; pinned %d, %s",
			accepted, sum, pinnedAccepted, pinnedVerdicts)
	}
}

// assertUpgradeRunsSound loads an accepted program and runs it on the
// interpreter, observing every conditional edge: no edge the analysis
// declared dead may be taken.
func assertUpgradeRunsSound(t *testing.T, insns []Instruction) {
	t.Helper()
	vm := NewVM()
	vm.RegisterMap(MustNewMap(MapTypeHash, "fuzz", 1024))
	r := vm.Analyze(insns)
	p, err := vm.Load("regress", insns)
	if err != nil {
		t.Fatalf("Verify accepted but Load failed: %v\n%s", err, Disassemble(insns))
	}
	// A run may end on the instruction budget; only the edges it
	// took matter here.
	_, _ = p.InterpBranches(nil, func(pc int, taken bool) {
		if b, ok := r.Branches[pc]; ok && ((taken && b.TakenDead) || (!taken && b.FallDead)) {
			t.Fatalf("accepted program took the dead edge at pc %d (taken=%v)\n%s", pc, taken, Disassemble(insns))
		}
	}, 1, 2)
}

// regressionCorpus assembles the program set: suite programs, the
// committed FuzzVerifier seed corpus, 400 generator programs seeded
// with 2024 and 50,000 seeded with 99.
func regressionCorpus(t *testing.T) [][]Instruction {
	t.Helper()
	corpus := [][]Instruction{
		benchProgram(),
		mapHelperProgram(0),
		evictionScanProgram(),
		deadRegionProgram(),
		{
			{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 0},
			{Op: ClassJMP | OpExit},
		},
	}
	corpus = append(corpus, fuzzCorpusPrograms(t, "testdata/fuzz/FuzzVerifier")...)
	rng := rand.New(rand.NewSource(2024))
	for i := 0; i < 400; i++ {
		corpus = append(corpus, randomProgram(rng, 0))
	}
	rng = rand.New(rand.NewSource(99))
	for i := 0; i < 50000; i++ {
		corpus = append(corpus, randomProgram(rng, 0))
	}
	return corpus
}

// fuzzCorpusPrograms decodes the committed go-fuzz corpus files
// (format: "go test fuzz v1" followed by one []byte literal).
func fuzzCorpusPrograms(t *testing.T, dir string) [][]Instruction {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]Instruction
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		for _, line := range lines {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "[]byte(") || !strings.HasSuffix(line, ")") {
				continue
			}
			lit, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s: bad corpus literal: %v", f, err)
			}
			insns, err := UnmarshalInstructions([]byte(lit))
			if err != nil {
				continue
			}
			out = append(out, insns)
		}
	}
	return out
}
