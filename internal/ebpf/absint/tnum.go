// Package absint is a kernel-verifier-style abstract interpreter for
// the SnapBPF eBPF dialect. It tracks, per register, a tnum
// (known-bits) domain plus signed and unsigned interval bounds and
// pointer provenance, runs a worklist fixpoint over the basic-block
// CFG, and evaluates branch feasibility; it is the whole of
// ebpf.Verify.
//
// The package is a leaf: it deliberately does not import
// internal/ebpf (which consumes it from the verifier).
// Instruction encoding constants are mirrored here and pinned against
// the ebpf package by a consistency test on the other side.
package absint

import (
	"fmt"
	"math/bits"
)

// Tnum is the kernel's "tracked number": Value holds the bits known
// to be set, Mask the bits whose value is unknown. A bit position is
// known-zero when it is clear in both. Invariant: Value&Mask == 0.
type Tnum struct {
	Value uint64
	Mask  uint64
}

var (
	tnumUnknown = Tnum{Value: 0, Mask: ^uint64(0)}
)

// TnumConst is the singleton abstraction of one concrete value.
func TnumConst(v uint64) Tnum { return Tnum{Value: v} }

// IsConst reports whether exactly one concrete value is represented.
func (t Tnum) IsConst() bool { return t.Mask == 0 }

// Contains reports whether the concrete value v is represented by t.
func (t Tnum) Contains(v uint64) bool { return v&^t.Mask == t.Value }

// TnumRange abstracts the unsigned interval [min, max] the same way
// the kernel's tnum_range does: all bits above the highest bit where
// min and max differ are known, everything below is unknown.
func TnumRange(min, max uint64) Tnum {
	chi := min ^ max
	if chi == 0 {
		return TnumConst(min)
	}
	bitsUsed := 64 - bits.LeadingZeros64(chi)
	var delta uint64
	if bitsUsed == 64 {
		delta = ^uint64(0)
	} else {
		delta = (uint64(1) << bitsUsed) - 1
	}
	return Tnum{Value: min &^ delta, Mask: delta}
}

func (t Tnum) Add(o Tnum) Tnum {
	sm := t.Mask + o.Mask
	sv := t.Value + o.Value
	sigma := sm + sv
	chi := sigma ^ sv
	mu := chi | t.Mask | o.Mask
	return Tnum{Value: sv &^ mu, Mask: mu}
}

func (t Tnum) Sub(o Tnum) Tnum {
	dv := t.Value - o.Value
	alpha := dv + t.Mask
	beta := dv - o.Mask
	chi := alpha ^ beta
	mu := chi | t.Mask | o.Mask
	return Tnum{Value: dv &^ mu, Mask: mu}
}

func (t Tnum) And(o Tnum) Tnum {
	alpha := t.Value | t.Mask
	beta := o.Value | o.Mask
	v := t.Value & o.Value
	return Tnum{Value: v, Mask: alpha & beta &^ v}
}

func (t Tnum) Or(o Tnum) Tnum {
	v := t.Value | o.Value
	mu := t.Mask | o.Mask
	return Tnum{Value: v, Mask: mu &^ v}
}

func (t Tnum) Xor(o Tnum) Tnum {
	v := t.Value ^ o.Value
	mu := t.Mask | o.Mask
	return Tnum{Value: v &^ mu, Mask: mu}
}

// Mul uses the kernel's half-multiply decomposition: accumulate
// partial products of the certain and uncertain parts.
func (t Tnum) Mul(o Tnum) Tnum {
	acc := TnumConst(t.Value * o.Value)
	a, b := t, o
	for a.Value != 0 || a.Mask != 0 {
		if a.Value&1 != 0 {
			acc = acc.Add(Tnum{Value: 0, Mask: b.Mask})
		} else if a.Mask&1 != 0 {
			acc = acc.Add(Tnum{Value: 0, Mask: b.Value | b.Mask})
		}
		a = a.rshift(1)
		b = b.lshift(1)
	}
	return acc
}

func (t Tnum) lshift(n uint) Tnum {
	return Tnum{Value: t.Value << n, Mask: t.Mask << n}
}

func (t Tnum) rshift(n uint) Tnum {
	return Tnum{Value: t.Value >> n, Mask: t.Mask >> n}
}

// Lsh/Rsh/Arsh shift by a constant amount (already masked by caller).
func (t Tnum) Lsh(n uint) Tnum { return t.lshift(n) }
func (t Tnum) Rsh(n uint) Tnum { return t.rshift(n) }

func (t Tnum) Arsh(n uint) Tnum {
	return Tnum{
		Value: uint64(int64(t.Value) >> n),
		Mask:  uint64(int64(t.Mask) >> n),
	}
}

// Intersect narrows to values represented by both operands. The
// second return is false when the operands are contradictory (no
// concrete value satisfies both).
func (t Tnum) Intersect(o Tnum) (Tnum, bool) {
	// Bits known in both operands must agree.
	if (t.Value^o.Value)&^(t.Mask|o.Mask) != 0 {
		return Tnum{}, false
	}
	v := t.Value | o.Value
	mu := t.Mask & o.Mask
	return Tnum{Value: v &^ mu, Mask: mu}, true
}

// Union widens to values represented by either operand (the join).
func (t Tnum) Union(o Tnum) Tnum {
	v := t.Value & o.Value
	mu := t.Mask | o.Mask | (t.Value ^ o.Value)
	return Tnum{Value: v &^ mu, Mask: mu}
}

// Cast truncates to size bytes (zero-extending the result).
func (t Tnum) Cast(size int) Tnum {
	if size >= 8 {
		return t
	}
	m := uint64(1)<<(8*uint(size)) - 1
	return Tnum{Value: t.Value & m, Mask: t.Mask & m}
}

// In reports whether every value represented by o is represented by t.
func (t Tnum) In(o Tnum) bool {
	if o.Mask&^t.Mask != 0 {
		return false
	}
	return t.Contains(o.Value)
}

func (t Tnum) String() string {
	if t.IsConst() {
		return fmt.Sprintf("%#x", t.Value)
	}
	if t == tnumUnknown {
		return "unknown"
	}
	return fmt.Sprintf("(%#x; %#x)", t.Value, t.Mask)
}
