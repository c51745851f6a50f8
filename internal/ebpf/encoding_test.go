package ebpf

import (
	"testing"
	"testing/quick"
)

func TestMarshalRoundTrip(t *testing.T) {
	insns := NewBuilder().
		Mov64Imm(R0, -7).
		LdImm64(R6, 0xdead_beef_0000_0001).
		StxDW(R10, -8, R6).
		LdxDW(R2, R10, -8).
		JmpImm(OpJeq, R2, 5, "end").
		Add64Reg(R0, R2).
		Label("end").
		Exit().
		MustProgram()
	data, err := MarshalInstructions(insns)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(insns)*InstructionSize {
		t.Fatalf("size = %d", len(data))
	}
	got, err := UnmarshalInstructions(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range insns {
		if got[i] != insns[i] {
			t.Fatalf("insn %d: %+v != %+v", i, got[i], insns[i])
		}
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(op, regs uint8, off int16, imm int32) bool {
		in := Instruction{Op: op, Dst: Register(regs & 0x0f), Src: Register(regs >> 4 & 0x0f), Off: off, Imm: imm}
		data, err := MarshalInstructions([]Instruction{in})
		if err != nil {
			return false
		}
		got, err := UnmarshalInstructions(data)
		if err != nil {
			return false
		}
		return got[0] == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalBadSize(t *testing.T) {
	if _, err := UnmarshalInstructions(make([]byte, 7)); err == nil {
		t.Fatal("odd-sized program accepted")
	}
}

func TestMarshalRejectsBadRegister(t *testing.T) {
	if _, err := MarshalInstructions([]Instruction{{Dst: 16}}); err == nil {
		t.Fatal("register 16 encoded")
	}
}

func TestDecodedProgramStillVerifiesAndRuns(t *testing.T) {
	insns := NewBuilder().
		Mov64Reg(R0, R1).
		Mul64Imm(R0, 3).
		Exit().
		MustProgram()
	data, err := MarshalInstructions(insns)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalInstructions(data)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM()
	prog, err := vm.Load("decoded", decoded)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.Run(nil, 14)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d", got)
	}
}
