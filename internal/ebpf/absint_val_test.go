package ebpf

import (
	"math/rand"
	"testing"
)

// containsU reports whether scalar abstraction v represents the
// concrete 64-bit value x — the soundness predicate all transfer
// function tests check.
func containsU(v absVal, x uint64) bool {
	return v.K == kindScalar &&
		v.TN.Contains(x) &&
		v.Umin <= x && x <= v.Umax &&
		v.Smin <= int64(x) && int64(x) <= v.Smax
}

// randVal builds a random sound abstraction together with concrete
// sample values it must represent (constructed purely from constVal
// and joinScalar, whose soundness the join test establishes).
func randVal(rng *rand.Rand) (absVal, []uint64) {
	base := interestingU64(rng)
	v := constVal(base)
	samples := []uint64{base}
	for i := rng.Intn(3); i > 0; i-- {
		c := interestingU64(rng)
		v = joinScalar(v, constVal(c))
		samples = append(samples, c)
	}
	return v, samples
}

func interestingU64(rng *rand.Rand) uint64 {
	switch rng.Intn(6) {
	case 0:
		return uint64(rng.Intn(16))
	case 1:
		return uint64(rng.Int63())
	case 2:
		return rng.Uint64()
	case 3:
		return ^uint64(0) - uint64(rng.Intn(16))
	case 4:
		return uint64(1)<<63 + uint64(rng.Intn(1024)) - 512
	default:
		return uint64(1)<<32 + uint64(rng.Intn(1024)) - 512
	}
}

// TestTransfer64Sound checks every 64-bit transfer function against
// the interpreter's concrete semantics over random abstractions.
func TestTransfer64Sound(t *testing.T) {
	ops := []uint8{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpLsh, OpRsh, OpArsh, OpNeg, OpMov}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30000; trial++ {
		a, as := randVal(rng)
		b, bs := randVal(rng)
		op := ops[rng.Intn(len(ops))]
		r := alu64Scalar(op, a, b)
		for _, ca := range as {
			for _, cb := range bs {
				c := concrete64(op, ca, cb)
				if !containsU(r, c) {
					t.Fatalf("op %#x: %s op %s = %s misses %#x (from %#x, %#x)",
						op, a, b, r, c, ca, cb)
				}
			}
		}
	}
}

// TestTransfer32Sound checks the 32-bit transfers: operands are low32
// views, results zero-extended.
func TestTransfer32Sound(t *testing.T) {
	ops := []uint8{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpLsh, OpRsh, OpArsh, OpMov}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30000; trial++ {
		a, as := randVal(rng)
		b, bs := randVal(rng)
		op := ops[rng.Intn(len(ops))]
		r := alu32Scalar(op, low32(a), low32(b))
		for _, ca := range as {
			for _, cb := range bs {
				c := uint64(concrete32(op, uint32(ca), uint32(cb)))
				if !containsU(r, c) {
					t.Fatalf("op32 %#x: %s op %s = %s misses %#x (from %#x, %#x)",
						op, a, b, r, c, ca, cb)
				}
			}
		}
	}
}

// TestViews32Sound checks low32/trunc32/sext32 against their concrete
// counterparts.
func TestViews32Sound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30000; trial++ {
		v, samples := randVal(rng)
		l := low32(v)
		s := sext32(l)
		for _, c := range samples {
			if !containsU(l, uint64(uint32(c))) {
				t.Fatalf("low32(%s) = %s misses %#x", v, l, uint32(c))
			}
			if !containsU(s, uint64(int64(int32(uint32(c))))) {
				t.Fatalf("sext32(low32(%s)) = %s misses %#x", v, s, uint64(int64(int32(uint32(c)))))
			}
		}
		tr := trunc32(v)
		for _, c := range samples {
			if c <= uint64(1)<<32-1 && v.Umax <= uint64(1)<<32-1 {
				if !containsU(tr, c) {
					t.Fatalf("trunc32(%s) = %s misses %#x", v, tr, c)
				}
			}
		}
	}
}

// TestJoinAndSyncSound checks that joins keep representing both sides
// and that sync never drops represented values.
func TestJoinAndSyncSound(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50000; trial++ {
		a, as := randVal(rng)
		b, bs := randVal(rng)
		j := joinScalar(a, b)
		for _, c := range append(append([]uint64{}, as...), bs...) {
			if !containsU(j, c) {
				t.Fatalf("join(%s, %s) = %s misses %#x", a, b, j, c)
			}
		}
		s := j
		if !s.sync() {
			t.Fatalf("sync of sound join (%s) reported contradiction", j)
		}
		for _, c := range as {
			if !containsU(s, c) {
				t.Fatalf("sync(%s) = %s dropped %#x", j, s, c)
			}
		}
	}
}

// TestWidenSound checks that widening keeps representing the values
// of its (already joined) input.
func TestWidenSound(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 20000; trial++ {
		prev, _ := randVal(rng)
		next, samples := randVal(rng)
		merged := joinScalar(prev, next)
		w := widen(prev, merged)
		for _, c := range samples {
			if !containsU(w, c) {
				t.Fatalf("widen(%s, %s) = %s misses %#x", prev, merged, w, c)
			}
		}
	}
}

// concreteTaken mirrors the interpreter's jumpTaken on 64-bit values.
func concreteTaken(op uint8, dst, src uint64) bool {
	switch op {
	case OpJeq:
		return dst == src
	case OpJne:
		return dst != src
	case OpJgt:
		return dst > src
	case OpJge:
		return dst >= src
	case OpJlt:
		return dst < src
	case OpJle:
		return dst <= src
	case OpJsgt:
		return int64(dst) > int64(src)
	case OpJsge:
		return int64(dst) >= int64(src)
	case OpJslt:
		return int64(dst) < int64(src)
	case OpJsle:
		return int64(dst) <= int64(src)
	case OpJset:
		return dst&src != 0
	}
	return false
}

// TestRefineCondSound: whenever a concrete operand pair takes an
// edge, refineCond must call that edge feasible and the refined
// abstractions must still represent the pair.
func TestRefineCondSound(t *testing.T) {
	ops := []uint8{OpJeq, OpJne, OpJgt, OpJge, OpJlt, OpJle, OpJsgt, OpJsge, OpJslt, OpJsle, OpJset}
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 50000; trial++ {
		d, ds := randVal(rng)
		s, ss := randVal(rng)
		op := ops[rng.Intn(len(ops))]
		for _, cd := range ds {
			for _, cs := range ss {
				taken := concreteTaken(op, cd, cs)
				nd, ns, feasible := refineCond(op, d, s, taken)
				if !feasible {
					t.Fatalf("op %#x taken=%v: edge declared infeasible but (%#x, %#x) takes it (d=%s s=%s)",
						op, taken, cd, cs, d, s)
				}
				if !containsU(nd, cd) || !containsU(ns, cs) {
					t.Fatalf("op %#x taken=%v: refinement dropped (%#x, %#x): d %s -> %s, s %s -> %s",
						op, taken, cd, cs, d, nd, s, ns)
				}
			}
		}
	}
}
