package ebpf

// Branch feasibility and refinement, modelled on the kernel's
// reg_set_min_max: given the two operand abstractions of a
// conditional jump, decide whether the taken (or fall-through) edge
// is reachable at all and, when it is, narrow the operands with the
// fact the condition establishes on that edge.

// intersectVal narrows a to values also represented by b. The second
// return is false when the intersection is empty.
func intersectVal(a, b absVal) (absVal, bool) {
	tn, ok := a.TN.Intersect(b.TN)
	if !ok {
		return absVal{}, false
	}
	r := absVal{
		K: kindScalar, TN: tn,
		Umin: max(a.Umin, b.Umin), Umax: min(a.Umax, b.Umax),
		Smin: max(a.Smin, b.Smin), Smax: min(a.Smax, b.Smax),
	}
	if r.Umin > r.Umax || r.Smin > r.Smax {
		return absVal{}, false
	}
	if !r.sync() {
		return absVal{}, false
	}
	return r, true
}

// canonCond maps (jump op, edge) to a canonical condition: the fall
// edge establishes the negation.
func canonCond(op uint8, taken bool) (uint8, bool) {
	if taken {
		return op, true
	}
	switch op {
	case OpJeq:
		return OpJne, true
	case OpJne:
		return OpJeq, true
	case OpJgt:
		return OpJle, true
	case OpJle:
		return OpJgt, true
	case OpJge:
		return OpJlt, true
	case OpJlt:
		return OpJge, true
	case OpJsgt:
		return OpJsle, true
	case OpJsle:
		return OpJsgt, true
	case OpJsge:
		return OpJslt, true
	case OpJslt:
		return OpJsge, true
	}
	return op, false // JSET: no opcode for the negation
}

// refineCond returns the operands narrowed by "cond holds" for the
// given edge of a conditional jump, or feasible=false when no
// concrete operand pair can take that edge. negated covers the
// fall-through edge of JSET, which has no canonical opcode.
func refineCond(op uint8, d, s absVal, taken bool) (d2, s2 absVal, feasible bool) {
	cond, direct := canonCond(op, taken)
	if !direct {
		return refineNotSet(d, s)
	}
	switch cond {
	case OpJeq:
		nd, ok1 := intersectVal(d, s)
		if !ok1 {
			return d, s, false
		}
		ns, ok2 := intersectVal(s, d)
		if !ok2 {
			return d, s, false
		}
		return nd, ns, true

	case OpJne:
		if dc, ok := d.IsConst(); ok {
			if sc, ok2 := s.IsConst(); ok2 && dc == sc {
				return d, s, false
			}
		}
		d = trimNe(d, s)
		s = trimNe(s, d)
		if !d.sync() || !s.sync() {
			return d, s, false
		}
		return d, s, true

	case OpJgt: // d > s unsigned
		if d.Umax <= s.Umin {
			return d, s, false
		}
		d.Umin = max(d.Umin, s.Umin+1)
		s.Umax = min(s.Umax, d.Umax-1)

	case OpJge:
		if d.Umax < s.Umin {
			return d, s, false
		}
		d.Umin = max(d.Umin, s.Umin)
		s.Umax = min(s.Umax, d.Umax)

	case OpJlt:
		if d.Umin >= s.Umax {
			return d, s, false
		}
		d.Umax = min(d.Umax, s.Umax-1)
		s.Umin = max(s.Umin, d.Umin+1)

	case OpJle:
		if d.Umin > s.Umax {
			return d, s, false
		}
		d.Umax = min(d.Umax, s.Umax)
		s.Umin = max(s.Umin, d.Umin)

	case OpJsgt:
		if d.Smax <= s.Smin {
			return d, s, false
		}
		d.Smin = max(d.Smin, s.Smin+1)
		s.Smax = min(s.Smax, d.Smax-1)

	case OpJsge:
		if d.Smax < s.Smin {
			return d, s, false
		}
		d.Smin = max(d.Smin, s.Smin)
		s.Smax = min(s.Smax, d.Smax)

	case OpJslt:
		if d.Smin >= s.Smax {
			return d, s, false
		}
		d.Smax = min(d.Smax, s.Smax-1)
		s.Smin = max(s.Smin, d.Smin+1)

	case OpJsle:
		if d.Smin > s.Smax {
			return d, s, false
		}
		d.Smax = min(d.Smax, s.Smax)
		s.Smin = max(s.Smin, d.Smin)

	case OpJset: // d & s != 0
		if (d.TN.Value|d.TN.Mask)&(s.TN.Value|s.TN.Mask) == 0 {
			return d, s, false
		}
		if sc, ok := s.IsConst(); ok && sc != 0 && sc&(sc-1) == 0 {
			// Single test bit: it must be set in d.
			if sc&^(d.TN.Value|d.TN.Mask) != 0 {
				return d, s, false
			}
			d.TN.Value |= sc
			d.TN.Mask &^= sc
		}

	default:
		// Unknown comparison: assume feasible, refine nothing.
		return d, s, true
	}
	if !d.sync() || !s.sync() {
		return d, s, false
	}
	return d, s, true
}

// refineNotSet handles the fall-through edge of JSET: d & s == 0.
func refineNotSet(d, s absVal) (absVal, absVal, bool) {
	if d.TN.Value&s.TN.Value != 0 {
		return d, s, false // a bit known set in both is always set in d&s
	}
	if sc, ok := s.IsConst(); ok {
		if d.TN.Value&sc != 0 {
			return d, s, false
		}
		d.TN.Mask &^= sc // every tested bit is known zero
		if !d.sync() {
			return d, s, false
		}
	}
	return d, s, true
}

// trimNe shaves a constant other operand off a's interval endpoints.
func trimNe(a, other absVal) absVal {
	c, ok := other.IsConst()
	if !ok {
		return a
	}
	if a.Umin == c && a.Umin < a.Umax {
		a.Umin++
	}
	if a.Umax == c && a.Umax > a.Umin {
		a.Umax--
	}
	if a.Smin == int64(c) && a.Smin < a.Smax {
		a.Smin++
	}
	if a.Smax == int64(c) && a.Smax > a.Smin {
		a.Smax--
	}
	return a
}
