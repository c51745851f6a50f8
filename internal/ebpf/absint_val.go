package ebpf

import (
	"fmt"
	"math"
	"math/bits"
)

// valKind is the provenance of an abstract register value, mirroring the
// kernel's reg type, with the scalar kind carrying full tnum +
// interval facts.
type valKind uint8

const (
	kindUninit valKind = iota
	kindScalar
	kindStackPtr
	kindMapConst
)

func (k valKind) String() string {
	switch k {
	case kindUninit:
		return "uninit"
	case kindScalar:
		return "scalar"
	case kindStackPtr:
		return "fp"
	case kindMapConst:
		return "map"
	}
	return "?"
}

// absVal is the abstract value of one register.
//
// For kindScalar the tnum and the interval bounds describe the
// register's 64-bit value. For kindStackPtr they describe the
// *variable addend*: the concrete value is stackTop + Off + addend,
// which keeps pointer arithmetic with a loop induction variable (fp +
// i*8) provable. kindMapConst is the constant fd in Off (its concrete
// runtime value), the analogue of the kernel's CONST_PTR_TO_MAP.
type absVal struct {
	K          valKind
	TN         tnum
	Umin, Umax uint64
	Smin, Smax int64
	// Off is the constant byte offset from the frame pointer
	// (kindStackPtr) or the map fd (kindMapConst).
	Off int64
}

func uninitVal() absVal { return absVal{K: kindUninit} }

func unknownScalar() absVal {
	return absVal{
		K: kindScalar, TN: tnumUnknown,
		Umin: 0, Umax: ^uint64(0),
		Smin: math.MinInt64, Smax: math.MaxInt64,
	}
}

func constVal(c uint64) absVal {
	return absVal{
		K: kindScalar, TN: tnumConst(c),
		Umin: c, Umax: c,
		Smin: int64(c), Smax: int64(c),
	}
}

func stackPtrVal(off int64) absVal {
	v := constVal(0)
	v.K = kindStackPtr
	v.Off = off
	return v
}

func mapConstVal(fd int64) absVal { return absVal{K: kindMapConst, Off: fd} }

// IsConst reports whether v is a scalar with exactly one value.
func (v absVal) IsConst() (uint64, bool) {
	if v.K == kindScalar && v.Umin == v.Umax {
		return v.Umin, true
	}
	return 0, false
}

// sync reconciles the three fact families (kernel reg_bounds_sync):
// tnum narrows the intervals, the intervals narrow the tnum, and the
// signed/unsigned bounds narrow each other whenever a range stays on
// one side of the 2^63 boundary. Returns false when the facts are
// contradictory (the value set is empty) — meaningful during branch
// refinement, impossible for sound transfer functions.
func (v *absVal) sync() bool {
	for i := 0; i < 3; i++ {
		tn, ok := v.TN.Intersect(tnumRange(v.Umin, v.Umax))
		if !ok {
			return false
		}
		v.TN = tn
		if lo := v.TN.Value; lo > v.Umin {
			v.Umin = lo
		}
		if hi := v.TN.Value | v.TN.Mask; hi < v.Umax {
			v.Umax = hi
		}
		if v.Umin > v.Umax {
			return false
		}
		// An unsigned range on one side of the sign boundary is a
		// valid signed range, and vice versa.
		if (v.Umin >> 63) == (v.Umax >> 63) {
			if s := int64(v.Umin); s > v.Smin {
				v.Smin = s
			}
			if s := int64(v.Umax); s < v.Smax {
				v.Smax = s
			}
		}
		if v.Smin > v.Smax {
			return false
		}
		if (v.Smin >= 0) == (v.Smax >= 0) {
			if u := uint64(v.Smin); u > v.Umin {
				v.Umin = u
			}
			if u := uint64(v.Smax); u < v.Umax {
				v.Umax = u
			}
		}
		if v.Umin > v.Umax {
			return false
		}
	}
	return true
}

// norm is sync for transfer-function results: a contradiction there
// can only come from imprecision interplay, so fall back to unknown.
func norm(v absVal) absVal {
	if !v.sync() {
		return unknownScalar()
	}
	return v
}

// scalarView is the abstraction of v's concrete 64-bit register
// value, whatever its provenance: pointers become their virtual
// address range, map references their fd. Sound because every
// comparison and every ALU demotion operates on the concrete bits.
func scalarView(v absVal) absVal {
	switch v.K {
	case kindScalar:
		return v
	case kindMapConst:
		return constVal(uint64(v.Off))
	case kindStackPtr:
		base := stackTop + uint64(v.Off)
		a := v
		a.K = kindScalar
		a.Off = 0
		return aAdd(a, constVal(base))
	}
	// Uninit registers are never read by accepted programs; any view
	// requested for reporting is unconstrained.
	return unknownScalar()
}

// addendOf extracts a stack pointer's variable addend as a scalar.
func addendOf(v absVal) absVal {
	a := v
	a.K = kindScalar
	a.Off = 0
	return a
}

// joinVal is the lattice join at control-flow merge points.
func joinVal(a, b absVal) absVal {
	if a == b {
		return a
	}
	if a.K == kindUninit || b.K == kindUninit {
		return uninitVal()
	}
	if a.K == kindStackPtr && b.K == kindStackPtr {
		// Rebase b onto a's fixed offset and join the addends, so
		// loop-carried pointers keep their provenance.
		bAdd := addendOf(b)
		if d := b.Off - a.Off; d != 0 {
			bAdd = aAdd(bAdd, constVal(uint64(d)))
		}
		j := joinScalar(addendOf(a), bAdd)
		j.K = kindStackPtr
		j.Off = a.Off
		return j
	}
	if a.K == kindMapConst && b.K == kindMapConst && a.Off == b.Off {
		return a
	}
	return joinScalar(scalarView(a), scalarView(b))
}

func joinScalar(a, b absVal) absVal {
	r := absVal{K: kindScalar}
	r.TN = a.TN.Union(b.TN)
	r.Umin = min(a.Umin, b.Umin)
	r.Umax = max(a.Umax, b.Umax)
	r.Smin = min(a.Smin, b.Smin)
	r.Smax = max(a.Smax, b.Smax)
	return norm(r)
}

// widen discards any interval bound that moved since prev, keeping
// only the tnum (which converges by itself: its mask can only grow,
// 64 steps at most). Called after a join point keeps changing.
func widen(prev, next absVal) absVal {
	if next.K != kindScalar && next.K != kindStackPtr {
		return next
	}
	if prev.K != next.K || prev.Off != next.Off {
		return next
	}
	if next.Umin < prev.Umin {
		next.Umin = 0
	}
	if next.Umax > prev.Umax {
		next.Umax = ^uint64(0)
	}
	if next.Smin < prev.Smin {
		next.Smin = math.MinInt64
	}
	if next.Smax > prev.Smax {
		next.Smax = math.MaxInt64
	}
	return norm(next)
}

func (v absVal) String() string {
	switch v.K {
	case kindUninit:
		return "uninit"
	case kindMapConst:
		return fmt.Sprintf("map(fd=%d)", v.Off)
	case kindStackPtr:
		a := addendOf(v)
		if c, ok := a.IsConst(); ok {
			return fmt.Sprintf("fp%+d", v.Off+int64(c))
		}
		return fmt.Sprintf("fp%+d+%s", v.Off, a.boundsString())
	}
	return v.boundsString()
}

func (v absVal) boundsString() string {
	if c, ok := v.IsConst(); ok {
		return fmt.Sprintf("%d", int64(c))
	}
	s := "["
	if v.Smin == math.MinInt64 && v.Umin == 0 {
		s += "?"
	} else if v.Smin >= 0 || v.Umin > 0 {
		s += fmt.Sprintf("%d", v.Umin)
	} else {
		s += fmt.Sprintf("%d", v.Smin)
	}
	s += ","
	if v.Smax == math.MaxInt64 && v.Umax == ^uint64(0) {
		s += "?"
	} else if v.Smax < 0 {
		s += fmt.Sprintf("%d", v.Smax)
	} else {
		s += fmt.Sprintf("%d", v.Umax)
	}
	s += "]"
	if v.TN.Mask != ^uint64(0) && !v.TN.IsConst() {
		s += " " + v.TN.String()
	}
	return s
}

// ---------------------------------------------------------------------------
// Scalar transfer functions (64-bit). Each mirrors the interpreter's
// aluOp64 case exactly: the abstraction of op(x, y) contains op(a, b)
// for every a in x, b in y.

func addS(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func subS(a, b int64) (int64, bool) {
	s := a - b
	if (a >= 0 && b < 0 && s < 0) || (a < 0 && b > 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func aAdd(a, b absVal) absVal {
	r := absVal{K: kindScalar}
	r.TN = a.TN.Add(b.TN)
	if hi, c := bits.Add64(a.Umax, b.Umax, 0); c == 0 {
		r.Umin = a.Umin + b.Umin
		r.Umax = hi
	} else {
		r.Umin, r.Umax = 0, ^uint64(0)
	}
	lo, ok1 := addS(a.Smin, b.Smin)
	hi, ok2 := addS(a.Smax, b.Smax)
	if ok1 && ok2 {
		r.Smin, r.Smax = lo, hi
	} else {
		r.Smin, r.Smax = math.MinInt64, math.MaxInt64
	}
	return norm(r)
}

func aSub(a, b absVal) absVal {
	r := absVal{K: kindScalar}
	r.TN = a.TN.Sub(b.TN)
	if a.Umin >= b.Umax {
		r.Umin = a.Umin - b.Umax
		r.Umax = a.Umax - b.Umin
	} else {
		r.Umin, r.Umax = 0, ^uint64(0)
	}
	lo, ok1 := subS(a.Smin, b.Smax)
	hi, ok2 := subS(a.Smax, b.Smin)
	if ok1 && ok2 {
		r.Smin, r.Smax = lo, hi
	} else {
		r.Smin, r.Smax = math.MinInt64, math.MaxInt64
	}
	return norm(r)
}

func aMul(a, b absVal) absVal {
	r := unknownScalar()
	r.TN = a.TN.Mul(b.TN)
	if hi, _ := bits.Mul64(a.Umax, b.Umax); hi == 0 {
		r.Umin = a.Umin * b.Umin
		r.Umax = a.Umax * b.Umax
		r.Smin, r.Smax = math.MinInt64, math.MaxInt64
	}
	return norm(r)
}

// aDiv models unsigned division with the kernel's x/0 == 0 rule.
func aDiv(a, b absVal) absVal {
	r := unknownScalar()
	r.TN = tnumUnknown
	r.Umin = 0
	if b.Umin > 0 {
		r.Umin = a.Umin / b.Umax
		r.Umax = a.Umax / b.Umin
	} else {
		r.Umax = a.Umax // division by >=1 shrinks; by 0 yields 0
	}
	r.Smin, r.Smax = math.MinInt64, math.MaxInt64
	return norm(r)
}

// aMod models unsigned modulo with the kernel's dst-unchanged-on-zero
// rule.
func aMod(a, b absVal) absVal {
	r := unknownScalar()
	var hi uint64
	if b.Umax > 0 {
		hi = b.Umax - 1
	}
	if b.Umin == 0 {
		// The divisor may be zero, leaving dst unchanged.
		hi = max(hi, a.Umax)
	}
	r.Umin, r.Umax = 0, hi
	r.Smin, r.Smax = math.MinInt64, math.MaxInt64
	return norm(r)
}

func aAnd(a, b absVal) absVal {
	r := unknownScalar()
	r.TN = a.TN.And(b.TN)
	r.Umax = min(a.Umax, b.Umax)
	return norm(r)
}

func aOr(a, b absVal) absVal {
	r := unknownScalar()
	r.TN = a.TN.Or(b.TN)
	return norm(r)
}

func aXor(a, b absVal) absVal {
	r := unknownScalar()
	r.TN = a.TN.Xor(b.TN)
	return norm(r)
}

func aLsh(a, b absVal) absVal {
	if c, ok := b.IsConst(); ok {
		n := uint(c & 63)
		r := absVal{K: kindScalar, TN: a.TN.Lsh(n)}
		if a.Umax <= (^uint64(0))>>n {
			r.Umin = a.Umin << n
			r.Umax = a.Umax << n
		} else {
			r.Umin, r.Umax = 0, ^uint64(0)
		}
		r.Smin, r.Smax = math.MinInt64, math.MaxInt64
		return norm(r)
	}
	return unknownScalar()
}

func aRsh(a, b absVal) absVal {
	if c, ok := b.IsConst(); ok {
		n := uint(c & 63)
		r := absVal{K: kindScalar, TN: a.TN.Rsh(n)}
		r.Umin = a.Umin >> n
		r.Umax = a.Umax >> n
		r.Smin, r.Smax = math.MinInt64, math.MaxInt64
		return norm(r)
	}
	return unknownScalar()
}

func aArsh(a, b absVal) absVal {
	if c, ok := b.IsConst(); ok {
		n := uint(c & 63)
		r := absVal{K: kindScalar, TN: a.TN.Arsh(n)}
		r.Smin = a.Smin >> n
		r.Smax = a.Smax >> n
		r.Umin, r.Umax = 0, ^uint64(0)
		return norm(r)
	}
	return unknownScalar()
}

func aNeg(a absVal) absVal { return aSub(constVal(0), a) }

// ---------------------------------------------------------------------------
// 32-bit views. ALU32 computes on the low words and zero-extends the
// result; JMP32 sign-extends the low words before comparing, which is
// order-isomorphic to comparing the 32-bit values directly.

// low32 abstracts uint32(x) for every x in v, as a value in [0, 2^32).
func low32(v absVal) absVal {
	const m = uint64(1)<<32 - 1
	r := absVal{K: kindScalar, TN: v.TN.Cast(4)}
	if v.Umax-v.Umin <= m && v.Umin&m <= v.Umax&m && v.Umin>>32 == v.Umax>>32 {
		r.Umin = v.Umin & m
		r.Umax = v.Umax & m
	} else {
		r.Umin, r.Umax = 0, m
	}
	r.Smin, r.Smax = 0, int64(m)
	return norm(r)
}

// trunc32 re-abstracts a 64-bit transfer result back into [0, 2^32):
// exact when the result range never left the low word.
func trunc32(v absVal) absVal {
	const m = uint64(1)<<32 - 1
	r := absVal{K: kindScalar, TN: v.TN.Cast(4)}
	if v.Umin <= v.Umax && v.Umax <= m {
		r.Umin, r.Umax = v.Umin, v.Umax
	} else {
		r.Umin, r.Umax = 0, m
	}
	r.Smin, r.Smax = 0, int64(m)
	return norm(r)
}

// sext32 abstracts the interpreter's JMP32 view: sign-extend the low
// word. Input must already be a low32 value (range within [0, 2^32)).
func sext32(v absVal) absVal {
	const half = uint64(1) << 31
	const hi32 = uint64(0xffff_ffff_0000_0000)
	r := absVal{K: kindScalar}
	switch {
	case v.Umax < half:
		return v // all non-negative: sign extension is the identity
	case v.Umin >= half:
		// All negative: the upper word becomes all-ones.
		r.TN = tnum{Value: v.TN.Value | hi32, Mask: v.TN.Mask}
		r.Smin = int64(int32(uint32(v.Umin)))
		r.Smax = int64(int32(uint32(v.Umax)))
		r.Umin = uint64(r.Smin)
		r.Umax = uint64(r.Smax)
	default:
		// Straddles the sign bit: [Umin, 2^31) ∪ [-2^31, sext(Umax)].
		r.TN = tnum{Value: v.TN.Value, Mask: v.TN.Mask | hi32}
		r.Smin = math.MinInt32
		r.Smax = math.MaxInt32
		r.Umin = v.Umin
		r.Umax = uint64(int64(int32(uint32(v.Umax))))
	}
	return norm(r)
}
