package absint

import (
	"encoding/binary"
)

// Static cost bounds. For programs whose feasible CFG is acyclic the
// longest path over feasible edges is exact. For cyclic programs a
// path-sensitive DFS re-executes the abstract step function without
// joins: loop iterations with distinct abstract states (a constant
// induction variable counting up, say) unroll, and the bound is the
// deepest chain. A back edge reached with an abstract state already on
// the DFS stack means the loop cannot be proven to make progress, and
// the cost is unbounded (-1).

// costNodeCap bounds the path-sensitive exploration; beyond it the
// analysis gives up and reports the cost as unbounded.
const costNodeCap = 1 << 15

// WorstCase returns the maximum number of instructions any run can
// execute (the interpreter's budget-step count), or -1 when the
// program is rejected or the analysis cannot bound it. It is computed
// on each call from the fixpoint states, so loading a program never
// pays for it; only report mode and tests ask.
func (r *Result) WorstCase() int64 {
	if !r.OK {
		return -1
	}
	a := r.a
	// Feasible pc-level successor sets from the fixpoint states.
	succs := make([][]int, len(a.insns))
	for pc := range a.insns {
		if a.seen[pc] == nil {
			continue
		}
		ss, err := a.step(pc, *a.seen[pc])
		if err != nil {
			return -1
		}
		for _, s := range ss {
			succs[pc] = append(succs[pc], s.pc)
		}
	}
	if cfgAcyclicFeasible(succs) {
		return longestPath(succs)
	}
	d := &costDFS{a: a, memo: map[string]int64{}, gray: map[string]bool{}}
	return d.visit(0, entryState())
}

// cfgAcyclicFeasible is an iterative three-colour DFS from pc 0 over
// the feasible edges.
func cfgAcyclicFeasible(succs [][]int) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, len(succs))
	type frame struct {
		pc, i int
	}
	stack := []frame{{pc: 0}}
	color[0] = gray
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(succs[f.pc]) {
			next := succs[f.pc][f.i]
			f.i++
			switch color[next] {
			case gray:
				return false
			case white:
				color[next] = gray
				stack = append(stack, frame{pc: next})
			}
			continue
		}
		color[f.pc] = black
		stack = stack[:len(stack)-1]
	}
	return true
}

// longestPath is the exact longest chain in an acyclic feasible CFG;
// every node costs one budget step (a lddw pair is one step).
func longestPath(succs [][]int) int64 {
	memo := make([]int64, len(succs))
	for i := range memo {
		memo[i] = -2 // unvisited
	}
	var visit func(pc int) int64
	visit = func(pc int) int64 {
		if memo[pc] != -2 {
			return memo[pc]
		}
		var worst int64
		for _, next := range succs[pc] {
			if c := visit(next); c > worst {
				worst = c
			}
		}
		memo[pc] = 1 + worst
		return memo[pc]
	}
	return visit(0)
}

type costDFS struct {
	a     *analysis
	memo  map[string]int64
	gray  map[string]bool
	nodes int
}

// visit returns the worst-case steps from (pc, st), or -1 when
// unbounded or past the exploration cap.
func (c *costDFS) visit(pc int, st state) int64 {
	key := costKey(pc, &st)
	if c.gray[key] {
		return -1 // same abstract state revisited inside one path: no provable progress
	}
	if v, ok := c.memo[key]; ok {
		return v
	}
	c.nodes++
	if c.nodes > costNodeCap {
		return -1
	}
	succs, err := c.a.step(pc, st)
	if err != nil {
		// Path states are narrower than fixpoint states, so this
		// cannot happen on an OK analysis; degrade to unbounded.
		return -1
	}
	succs = append([]succ(nil), succs...) // the recursion reuses step's buffer
	c.gray[key] = true
	var worst int64
	for _, s := range succs {
		v := c.visit(s.pc, s.st)
		if v < 0 {
			delete(c.gray, key)
			return -1
		}
		if v > worst {
			worst = v
		}
	}
	delete(c.gray, key)
	c.memo[key] = 1 + worst
	return 1 + worst
}

// costKey fingerprints a program point plus full abstract state.
func costKey(pc int, st *state) string {
	buf := make([]byte, 0, 8+NumRegisters*57)
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		buf = append(buf, w[:]...)
	}
	put(uint64(pc))
	for i := range st.regs {
		r := &st.regs[i]
		buf = append(buf, byte(r.K))
		put(r.TN.Value)
		put(r.TN.Mask)
		put(r.Umin)
		put(r.Umax)
		put(uint64(r.Smin))
		put(uint64(r.Smax))
		put(uint64(r.Off))
	}
	return string(buf)
}
