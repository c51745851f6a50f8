package ebpf

import (
	"math/rand"
	"testing"
)

// enumTnums lists every tnum over the low `bits` bits (value/mask
// pairs with value&mask == 0).
func enumTnums(bits uint) []tnum {
	var out []tnum
	n := uint64(1) << bits
	for m := uint64(0); m < n; m++ {
		for v := uint64(0); v < n; v++ {
			if v&m == 0 {
				out = append(out, tnum{Value: v, Mask: m})
			}
		}
	}
	return out
}

// concretize lists every concrete value a small tnum represents.
func concretize(t tnum) []uint64 {
	vals := []uint64{t.Value}
	for b := 0; b < 64; b++ {
		bit := uint64(1) << b
		if t.Mask&bit == 0 {
			continue
		}
		for _, v := range vals {
			vals = append(vals, v|bit)
		}
	}
	return vals
}

// TestTnumBinaryOpsSound exhaustively checks, over all 4-bit tnums,
// that each abstract binary operation contains every concrete result.
func TestTnumBinaryOpsSound(t *testing.T) {
	tnums := enumTnums(4)
	ops := []struct {
		name string
		abs  func(a, b tnum) tnum
		conc func(a, b uint64) uint64
	}{
		{"add", tnum.Add, func(a, b uint64) uint64 { return a + b }},
		{"sub", tnum.Sub, func(a, b uint64) uint64 { return a - b }},
		{"and", tnum.And, func(a, b uint64) uint64 { return a & b }},
		{"or", tnum.Or, func(a, b uint64) uint64 { return a | b }},
		{"xor", tnum.Xor, func(a, b uint64) uint64 { return a ^ b }},
		{"mul", tnum.Mul, func(a, b uint64) uint64 { return a * b }},
	}
	for _, op := range ops {
		for _, ta := range tnums {
			for _, tb := range tnums {
				r := op.abs(ta, tb)
				if r.Value&r.Mask != 0 {
					t.Fatalf("%s(%v,%v): invariant broken: %v", op.name, ta, tb, r)
				}
				for _, a := range concretize(ta) {
					for _, b := range concretize(tb) {
						if c := op.conc(a, b); !r.Contains(c) {
							t.Fatalf("%s(%v,%v) = %v does not contain %s(%#x,%#x) = %#x",
								op.name, ta, tb, r, op.name, a, b, c)
						}
					}
				}
			}
		}
	}
}

func TestTnumShiftsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		v := rng.Uint64()
		m := rng.Uint64() &^ v
		tn := tnum{Value: v &^ m, Mask: m}
		n := uint(rng.Intn(64))
		for _, c := range []uint64{tn.Value, tn.Value | tn.Mask} {
			if !tn.Lsh(n).Contains(c << n) {
				t.Fatalf("Lsh(%v, %d) misses %#x", tn, n, c<<n)
			}
			if !tn.Rsh(n).Contains(c >> n) {
				t.Fatalf("Rsh(%v, %d) misses %#x", tn, n, c>>n)
			}
			if !tn.Arsh(n).Contains(uint64(int64(c) >> n)) {
				t.Fatalf("Arsh(%v, %d) misses %#x", tn, n, uint64(int64(c)>>n))
			}
		}
	}
}

// TestTnumRangeSound checks every value of [min,max] is contained for
// all byte-sized ranges.
func TestTnumRangeSound(t *testing.T) {
	for min := uint64(0); min < 64; min++ {
		for max := min; max < 64; max++ {
			tn := tnumRange(min, max)
			for v := min; v <= max; v++ {
				if !tn.Contains(v) {
					t.Fatalf("tnumRange(%d,%d) = %v misses %d", min, max, tn, v)
				}
			}
		}
	}
	// The extremes must not overflow the bit-width computation.
	if tn := tnumRange(0, ^uint64(0)); tn != tnumUnknown {
		t.Fatalf("full range should be unknown, got %v", tn)
	}
}

// TestTnumIntersectUnion checks, over all 4-bit tnum pairs, that
// Intersect represents exactly the common values and Union at least
// the values of both sides.
func TestTnumIntersectUnion(t *testing.T) {
	tnums := enumTnums(4)
	for _, ta := range tnums {
		for _, tb := range tnums {
			inter, ok := ta.Intersect(tb)
			common := 0
			for v := uint64(0); v < 16; v++ {
				in := ta.Contains(v) && tb.Contains(v)
				if in {
					common++
				}
				if ok && in && !inter.Contains(v) {
					t.Fatalf("Intersect(%v,%v)=%v misses common value %#x", ta, tb, inter, v)
				}
			}
			if !ok && common > 0 {
				t.Fatalf("Intersect(%v,%v) reported empty but %d common values exist", ta, tb, common)
			}
			u := ta.Union(tb)
			for _, v := range concretize(ta) {
				if !u.Contains(v) {
					t.Fatalf("Union(%v,%v)=%v misses %#x from a", ta, tb, u, v)
				}
			}
			for _, v := range concretize(tb) {
				if !u.Contains(v) {
					t.Fatalf("Union(%v,%v)=%v misses %#x from b", ta, tb, u, v)
				}
			}
		}
	}
}

func TestTnumCastIn(t *testing.T) {
	tn := tnum{Value: 0x1_0000_00f0, Mask: 0x0f}
	c := tn.Cast(4)
	if c.Value != 0xf0 || c.Mask != 0x0f {
		t.Fatalf("Cast(4) = %v", c)
	}
	if !tnumUnknown.In(tn) {
		t.Fatal("unknown must contain everything")
	}
	if tn.In(tnumUnknown) {
		t.Fatal("a constrained tnum cannot contain unknown")
	}
	if !tnumConst(5).In(tnumConst(5)) || tnumConst(5).In(tnumConst(6)) {
		t.Fatal("const In misbehaves")
	}
}
