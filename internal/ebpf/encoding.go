package ebpf

import (
	"encoding/binary"
	"fmt"
)

// Wire-format encoding of programs, using the kernel's fixed 8-byte
// instruction layout:
//
//	byte 0   opcode
//	byte 1   dst_reg (low nibble) | src_reg (high nibble)
//	bytes 2-3  offset, little-endian int16
//	bytes 4-7  immediate, little-endian int32
//
// This is the format bpf(BPF_PROG_LOAD) consumes and object files
// carry; the fuzzers and the verifier regression corpus decode their
// programs from it.

// InstructionSize is the wire size of one instruction slot.
const InstructionSize = 8

// MarshalInstructions encodes a program into the kernel wire format.
func MarshalInstructions(insns []Instruction) ([]byte, error) {
	out := make([]byte, 0, len(insns)*InstructionSize)
	for i, in := range insns {
		if in.Dst >= 16 || in.Src >= 16 {
			return nil, fmt.Errorf("ebpf: insn %d: register out of encoding range", i)
		}
		var b [InstructionSize]byte
		b[0] = in.Op
		b[1] = uint8(in.Dst) | uint8(in.Src)<<4
		binary.LittleEndian.PutUint16(b[2:], uint16(in.Off))
		binary.LittleEndian.PutUint32(b[4:], uint32(in.Imm))
		out = append(out, b[:]...)
	}
	return out, nil
}

// UnmarshalInstructions decodes a wire-format program.
func UnmarshalInstructions(data []byte) ([]Instruction, error) {
	if len(data)%InstructionSize != 0 {
		return nil, fmt.Errorf("ebpf: program size %d not a multiple of %d", len(data), InstructionSize)
	}
	n := len(data) / InstructionSize
	out := make([]Instruction, n)
	for i := 0; i < n; i++ {
		b := data[i*InstructionSize:]
		out[i] = Instruction{
			Op:  b[0],
			Dst: Register(b[1] & 0x0f),
			Src: Register(b[1] >> 4),
			Off: int16(binary.LittleEndian.Uint16(b[2:])),
			Imm: int32(binary.LittleEndian.Uint32(b[4:])),
		}
	}
	return out, nil
}
