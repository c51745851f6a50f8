package ebpf

import (
	"fmt"
	"math/bits"
)

// tnum is the kernel's "tracked number": Value holds the bits known
// to be set, Mask the bits whose value is unknown. A bit position is
// known-zero when it is clear in both. Invariant: Value&Mask == 0.
type tnum struct {
	Value uint64
	Mask  uint64
}

var (
	tnumUnknown = tnum{Value: 0, Mask: ^uint64(0)}
)

// tnumConst is the singleton abstraction of one concrete value.
func tnumConst(v uint64) tnum { return tnum{Value: v} }

// IsConst reports whether exactly one concrete value is represented.
func (t tnum) IsConst() bool { return t.Mask == 0 }

// Contains reports whether the concrete value v is represented by t.
func (t tnum) Contains(v uint64) bool { return v&^t.Mask == t.Value }

// tnumRange abstracts the unsigned interval [min, max] the same way
// the kernel's tnum_range does: all bits above the highest bit where
// min and max differ are known, everything below is unknown.
func tnumRange(min, max uint64) tnum {
	chi := min ^ max
	if chi == 0 {
		return tnumConst(min)
	}
	bitsUsed := 64 - bits.LeadingZeros64(chi)
	var delta uint64
	if bitsUsed == 64 {
		delta = ^uint64(0)
	} else {
		delta = (uint64(1) << bitsUsed) - 1
	}
	return tnum{Value: min &^ delta, Mask: delta}
}

func (t tnum) Add(o tnum) tnum {
	sm := t.Mask + o.Mask
	sv := t.Value + o.Value
	sigma := sm + sv
	chi := sigma ^ sv
	mu := chi | t.Mask | o.Mask
	return tnum{Value: sv &^ mu, Mask: mu}
}

func (t tnum) Sub(o tnum) tnum {
	dv := t.Value - o.Value
	alpha := dv + t.Mask
	beta := dv - o.Mask
	chi := alpha ^ beta
	mu := chi | t.Mask | o.Mask
	return tnum{Value: dv &^ mu, Mask: mu}
}

func (t tnum) And(o tnum) tnum {
	alpha := t.Value | t.Mask
	beta := o.Value | o.Mask
	v := t.Value & o.Value
	return tnum{Value: v, Mask: alpha & beta &^ v}
}

func (t tnum) Or(o tnum) tnum {
	v := t.Value | o.Value
	mu := t.Mask | o.Mask
	return tnum{Value: v, Mask: mu &^ v}
}

func (t tnum) Xor(o tnum) tnum {
	v := t.Value ^ o.Value
	mu := t.Mask | o.Mask
	return tnum{Value: v &^ mu, Mask: mu}
}

// Mul uses the kernel's half-multiply decomposition: accumulate
// partial products of the certain and uncertain parts.
func (t tnum) Mul(o tnum) tnum {
	acc := tnumConst(t.Value * o.Value)
	a, b := t, o
	for a.Value != 0 || a.Mask != 0 {
		if a.Value&1 != 0 {
			acc = acc.Add(tnum{Value: 0, Mask: b.Mask})
		} else if a.Mask&1 != 0 {
			acc = acc.Add(tnum{Value: 0, Mask: b.Value | b.Mask})
		}
		a = a.rshift(1)
		b = b.lshift(1)
	}
	return acc
}

func (t tnum) lshift(n uint) tnum {
	return tnum{Value: t.Value << n, Mask: t.Mask << n}
}

func (t tnum) rshift(n uint) tnum {
	return tnum{Value: t.Value >> n, Mask: t.Mask >> n}
}

// Lsh/Rsh/Arsh shift by a constant amount (already masked by caller).
func (t tnum) Lsh(n uint) tnum { return t.lshift(n) }
func (t tnum) Rsh(n uint) tnum { return t.rshift(n) }

func (t tnum) Arsh(n uint) tnum {
	return tnum{
		Value: uint64(int64(t.Value) >> n),
		Mask:  uint64(int64(t.Mask) >> n),
	}
}

// Intersect narrows to values represented by both operands. The
// second return is false when the operands are contradictory (no
// concrete value satisfies both).
func (t tnum) Intersect(o tnum) (tnum, bool) {
	// Bits known in both operands must agree.
	if (t.Value^o.Value)&^(t.Mask|o.Mask) != 0 {
		return tnum{}, false
	}
	v := t.Value | o.Value
	mu := t.Mask & o.Mask
	return tnum{Value: v &^ mu, Mask: mu}, true
}

// Union widens to values represented by either operand (the join).
func (t tnum) Union(o tnum) tnum {
	v := t.Value & o.Value
	mu := t.Mask | o.Mask | (t.Value ^ o.Value)
	return tnum{Value: v &^ mu, Mask: mu}
}

// Cast truncates to size bytes (zero-extending the result).
func (t tnum) Cast(size int) tnum {
	if size >= 8 {
		return t
	}
	m := uint64(1)<<(8*uint(size)) - 1
	return tnum{Value: t.Value & m, Mask: t.Mask & m}
}

// In reports whether every value represented by o is represented by t.
func (t tnum) In(o tnum) bool {
	if o.Mask&^t.Mask != 0 {
		return false
	}
	return t.Contains(o.Value)
}

func (t tnum) String() string {
	if t.IsConst() {
		return fmt.Sprintf("%#x", t.Value)
	}
	if t == tnumUnknown {
		return "unknown"
	}
	return fmt.Sprintf("(%#x; %#x)", t.Value, t.Mask)
}
