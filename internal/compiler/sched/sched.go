package sched

import (
	"slices"

	"ilp/internal/ir"
	"ilp/internal/isa"
	"ilp/internal/machine"
)

// Options selects scheduling behavior.
type Options struct {
	// Careful enables the careful-unrolling memory disambiguation.
	Careful bool
}

// Schedule reorders instructions within each basic block (in place) to
// minimize pipeline stalls under the machine description. The permutation
// never crosses block leaders, branches, calls, or returns, so all branch
// targets remain valid. The mem annotation array is permuted alongside.
func Schedule(p *isa.Program, mem []ir.MemRef, blockStarts []int, cfg *machine.Config, opts Options) {
	regions := Regions(p.Instrs, blockStarts)
	longest := 0
	for _, r := range regions {
		longest = max(longest, r[1]-r[0])
	}
	sc := newSchedScratch(cfg, longest)
	for _, r := range regions {
		start, end := r[0], r[1]
		if end-start > 1 {
			scheduleRegion(p.Instrs[start:end], mem[start:end], cfg, opts, sc)
		}
	}
}

// schedScratch holds the machine-derived tables, the dependence graph and
// the per-region work arrays scheduleRegion needs, built once per Schedule
// call and reused across regions (the tables depend only on the machine;
// the arrays are sized for the longest region). Purely an allocation saver
// — scheduling is unchanged.
type schedScratch struct {
	classUnit [isa.NumClasses]int
	unitFree  [][]int
	g         Graph
	height    []int
	earliest  []int
	scheduled []bool
	order     []int
	newInstrs []isa.Instr
	newMem    []ir.MemRef
}

func newSchedScratch(cfg *machine.Config, longest int) *schedScratch {
	sc := &schedScratch{
		unitFree:  make([][]int, len(cfg.Units)),
		height:    make([]int, longest),
		earliest:  make([]int, longest),
		scheduled: make([]bool, longest),
		order:     make([]int, 0, longest),
		newInstrs: make([]isa.Instr, longest),
		newMem:    make([]ir.MemRef, longest),
	}
	for ui, u := range cfg.Units {
		for _, cl := range u.Classes {
			sc.classUnit[cl] = ui
		}
		sc.unitFree[ui] = make([]int, u.Multiplicity)
	}
	sc.g.grow(longest)
	return sc
}

// reset sizes the per-region arrays to n instructions, zeroing what a
// fresh allocation would have zeroed.
func (sc *schedScratch) reset(n int) {
	sc.height = sc.height[:n]
	sc.earliest = sc.earliest[:n]
	sc.scheduled = sc.scheduled[:n]
	sc.order = sc.order[:0]
	sc.newInstrs = sc.newInstrs[:n]
	sc.newMem = sc.newMem[:n]
	clear(sc.earliest)
	clear(sc.scheduled)
	for _, copies := range sc.unitFree {
		clear(copies)
	}
}

// isBarrier reports whether the instruction bounds a scheduling region:
// branches, calls, returns and halt never move.
func isBarrier(in *isa.Instr) bool {
	info := in.Op.Info()
	return info.Branch || in.Op == isa.OpHalt
}

// Regions returns the [start, end) bounds of every schedulable straight-line
// region: a maximal run of non-barrier instructions that does not cross a
// basic-block leader. Instructions outside all regions (branches, calls,
// returns, halt) are never reordered by Schedule. The decomposition is also
// used by internal/verify to re-derive exactly the regions the scheduler was
// allowed to permute.
func Regions(instrs []isa.Instr, blockStarts []int) [][2]int {
	n := len(instrs)
	leader := make([]uint64, (n+63)/64)
	for _, b := range blockStarts {
		if b >= 0 && b < n {
			leader[b/64] |= 1 << (b % 64)
		}
	}
	var out [][2]int
	start := 0
	for start < n {
		if isBarrier(&instrs[start]) {
			start++
			continue
		}
		end := start + 1
		for end < n && !isBarrier(&instrs[end]) && leader[end/64]&(1<<(end%64)) == 0 {
			end++
		}
		out = append(out, [2]int{start, end})
		start = end
	}
	return out
}

// edge is one dependence arc within a region: instruction `to` must issue
// at least `w` minor cycles after its predecessor.
type edge struct {
	to int
	w  int
}

// foundEdge is one dependence arc as build finds it, before the arcs are
// grouped by predecessor.
type foundEdge struct {
	from, to, w int32
}

// useNode is one read of a register, threaded into that register's list of
// reads since its last definition.
type useNode struct {
	at, next int32 // the reading instruction; the next node + 1, 0 at the end
}

// memOp is the footprint of one instruction that touches memory.
type memOp struct {
	at  int32
	acc memAccess
}

// Graph is the dependence graph of one straight-line region: RAW, WAR and
// WAW register edges plus memory-ordering edges from the conservative or
// careful disambiguator. A Graph is rebuilt for each region and keeps its
// storage from one region to the next, so analyzing any number of regions
// allocates only while the largest region seen so far grows. The zero
// Graph is ready to use; a Graph is not safe for concurrent use.
type Graph struct {
	// The successors of instruction i are succ[off[i]:off[i+1]], in the
	// order they were found; npred[j] counts j's predecessors.
	succ  []edge
	off   []int32
	npred []int
	found []foundEdge

	// lastDef[r] is one more than the last instruction that defined r, 0
	// if none has yet. The reads of r since then are the list threaded
	// through uses from useHead[r] to useTail[r] (node + 1, 0 if empty).
	lastDef, useHead, useTail [isa.NumRegs]int32
	uses                      []useNode

	mem   []memOp // the region's memory accesses so far, in order
	aa    addrAnalysis
	pairs [][2]int // Dependences' result
}

// grow makes room for regions of n instructions.
func (g *Graph) grow(n int) {
	if cap(g.off) < n+1 {
		g.npred = make([]int, n)
		g.off = make([]int32, n+1)
		g.mem = make([]memOp, 0, n)
		g.uses = make([]useNode, 0, 2*n)
		g.found = make([]foundEdge, 0, 4*n)
		g.succ = make([]edge, 0, 4*n)
	}
}

// build constructs the dependence graph of one straight-line region in its
// current order. lat supplies RAW edge weights (operation latencies); nil
// gives every edge unit weight, which preserves the graph's structure and
// is all a legality check needs. Every successor j of i has j > i. The
// instructions' registers must lie below isa.NumRegs, as they do in any
// validated program.
func (g *Graph) build(instrs []isa.Instr, mem []ir.MemRef, careful bool, lat *[isa.NumClasses]int) {
	n := len(instrs)
	g.grow(n)
	g.npred = g.npred[:n]
	clear(g.npred)
	g.found, g.uses, g.mem = g.found[:0], g.uses[:0], g.mem[:0]
	g.lastDef, g.useHead, g.useTail = [isa.NumRegs]int32{}, [isa.NumRegs]int32{}, [isa.NumRegs]int32{}
	g.aa.reset()

	for j := 0; j < n; j++ {
		in := &instrs[j]
		u1, u2 := in.Uses()
		for _, u := range [2]isa.Reg{u1, u2} {
			if u == isa.NoReg {
				continue
			}
			if d := g.lastDef[u]; d > 0 {
				w := 1
				if lat != nil {
					w = lat[instrs[d-1].Op.Class()]
				}
				g.add(int(d-1), j, w) // RAW
			}
		}
		if d := in.Def(); d != isa.NoReg && d != isa.RZero {
			if i := g.lastDef[d]; i > 0 {
				g.add(int(i-1), j, 1) // WAW
			}
			// j's own reads join the lists below, so every read here is
			// earlier.
			for k := g.useHead[d]; k > 0; k = g.uses[k-1].next {
				g.add(int(g.uses[k-1].at), j, 0) // WAR
			}
			g.lastDef[d] = int32(j) + 1
			g.useHead[d], g.useTail[d] = 0, 0
		}
		for _, u := range [2]isa.Reg{u1, u2} {
			if u == isa.NoReg {
				continue
			}
			g.uses = append(g.uses, useNode{at: int32(j)})
			k := int32(len(g.uses))
			if t := g.useTail[u]; t > 0 {
				g.uses[t-1].next = k
			} else {
				g.useHead[u] = k
			}
			g.useTail[u] = k
		}
		// Memory ordering. The address analysis steps over every
		// instruction, since any of them may define an address register.
		addr, hasAddr := g.aa.step(in)
		if mem[j].Kind != ir.MemNone {
			acc := memAccess{ref: mem[j], isStore: in.Op.Info().Store, addr: addr, hasAddr: hasAddr}
			for i := range g.mem {
				if depends(&g.mem[i].acc, &acc, careful) {
					g.add(int(g.mem[i].at), j, 1)
				}
			}
			g.mem = append(g.mem, memOp{at: int32(j), acc: acc})
		}
	}
	g.link(n)
}

// add records the edge i -> j of weight w.
func (g *Graph) add(i, j, w int) {
	g.found = append(g.found, foundEdge{from: int32(i), to: int32(j), w: int32(w)})
	g.npred[j]++
}

// link groups the found edges by predecessor into succ, keeping each
// predecessor's edges in the order they were found.
func (g *Graph) link(n int) {
	off := g.off[:n+1]
	clear(off)
	for _, e := range g.found {
		off[e.from+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	g.succ = slices.Grow(g.succ[:0], len(g.found))[:len(g.found)]
	for _, e := range g.found {
		g.succ[off[e.from]] = edge{to: int(e.to), w: int(e.w)}
		off[e.from]++
	}
	// Each off[i] now ends bucket i; shift them to start it.
	copy(off[1:], off[:n])
	off[0] = 0
	g.off = off
}

// succs returns instruction i's successors.
func (g *Graph) succs(i int) []edge {
	return g.succ[g.off[i]:g.off[i+1]]
}

// Dependences recomputes the dependence edges of one straight-line region
// (in the order given) and returns them as (i, j) index pairs with i < j:
// instruction j must stay after instruction i in any legal reordering. It is
// the scheduler's own dependence analysis — identical register RAW/WAR/WAW
// edges and memory-ordering edges in the chosen disambiguation mode — so a
// schedule that preserves every returned pair is legal by construction. The
// result is valid until the Graph's next use.
func (g *Graph) Dependences(instrs []isa.Instr, mem []ir.MemRef, careful bool) [][2]int {
	g.build(instrs, mem, careful, nil)
	g.pairs = g.pairs[:0]
	for i := range instrs {
		for _, e := range g.succs(i) {
			g.pairs = append(g.pairs, [2]int{i, e.to})
		}
	}
	return g.pairs
}

// scheduleRegion list-schedules one straight-line region.
func scheduleRegion(instrs []isa.Instr, mem []ir.MemRef, cfg *machine.Config, opts Options, sc *schedScratch) {
	n := len(instrs)
	g := &sc.g
	g.build(instrs, mem, opts.Careful, &cfg.Latency)
	npred := g.npred
	sc.reset(n)

	// Priorities: critical-path height.
	height := sc.height
	for i := n - 1; i >= 0; i-- {
		h := cfg.Latency[instrs[i].Op.Class()]
		for _, e := range g.succs(i) {
			if v := e.w + height[e.to]; v > h {
				h = v
			}
		}
		height[i] = h
	}

	// List scheduling with a virtual machine clock: issue width and
	// functional-unit issue latencies are modeled so the order matches
	// what the target machine can actually sustain.
	unitFree := sc.unitFree

	earliest := sc.earliest
	scheduled := sc.scheduled
	order := sc.order
	var cycle, inCycle int

	remaining := n
	for remaining > 0 {
		best := -1
		bestTime := 1 << 30
		for i := 0; i < n; i++ {
			if scheduled[i] || npred[i] > 0 {
				continue
			}
			t := earliest[i]
			if t < bestTime || (t == bestTime && best >= 0 &&
				(height[i] > height[best] || (height[i] == height[best] && i < best))) {
				best = i
				bestTime = t
			}
		}
		// Account for issue width and unit availability.
		t := bestTime
		if t < cycle {
			t = cycle
		}
		if t == cycle && inCycle >= cfg.IssueWidth {
			t = cycle + 1
		}
		ui := sc.classUnit[instrs[best].Op.Class()]
		copies := unitFree[ui]
		bc := 0
		for k := 1; k < len(copies); k++ {
			if copies[k] < copies[bc] {
				bc = k
			}
		}
		if copies[bc] > t {
			t = copies[bc]
		}
		if t > cycle {
			cycle = t
			inCycle = 1
		} else {
			inCycle++
		}
		copies[bc] = t + cfg.Units[ui].IssueLatency

		scheduled[best] = true
		order = append(order, best)
		remaining--
		for _, e := range g.succs(best) {
			npred[e.to]--
			if v := t + e.w; v > earliest[e.to] {
				earliest[e.to] = v
			}
		}
	}

	// Apply the permutation.
	newInstrs := sc.newInstrs
	newMem := sc.newMem
	for pos, i := range order {
		newInstrs[pos] = instrs[i]
		newMem[pos] = mem[i]
	}
	copy(instrs, newInstrs)
	copy(mem, newMem)
}
