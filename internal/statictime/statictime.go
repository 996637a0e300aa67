// Package statictime is the static half of the simulator's timing story: a
// per-basic-block cycle-bound analyzer over the scheduled machine code and
// the machine description. The paper's thesis is that available parallelism
// is a static property of the code and the machine ("the instruction-level
// parallelism available to a machine with given latencies is a property of
// the program after compilation"), so the cycle counts the dynamic engine
// reports should be derivable — or at least boundable — without running.
//
// For every basic block the analyzer computes three span lower bounds (the
// minimum distance, in minor cycles, between the block's first and last
// issue in any execution, under any entry state):
//
//   - the dependence height: the critical path through the block's RAW and
//     WAW edges under the machine's operation latencies (§2.1's "operation
//     latency" discipline, exactly as the engine's scoreboard enforces it);
//   - the issue-width bound: ⌈n/width⌉−1, the in-order width pigeonhole;
//   - the resource-pressure bound: per functional unit, a block that books
//     c issues on m copies with issue latency l keeps some copy busy for
//     (⌈c/m⌉−1)·l minor cycles — the PALMED-style throughput bound from
//     resource multiplicities.
//
// The block span is the max of the three. Combined with dynamic
// per-instruction execution counts (the fold of the engine's block
// enter/exit counters) and the taken-branch redirect gaps, the per-block
// spans give a whole-program lower bound on minor cycles; a potential-
// function argument over the engine's state gives an upper bound
// (LowerBound, UpperBound). internal/verify.CheckTiming turns the pair into
// the cross-check oracle `lower ≤ simulated ≤ upper`.
//
// For blocks whose instructions all issue to conflict-free units
// (multiplicity ≥ issue width and issue latency 1 — every unit of every
// ideal machine), entry state cannot perturb the schedule once the entry
// registers are quiescent: the analyzer then computes the block's exact
// clean-entry span (Block.ExactSpan), which verify.CheckTiming checks
// against the block's own lower bound. The simulator carries the same
// clean-entry argument across blocks: its predecoder builds superblock
// traces with an exact timing advance per exit, which the fast path and the
// walk replay instead of walking the scoreboard instruction by instruction
// (sim's replay.go). From this package it takes only the execution Profile
// that selects which conditional branches a trace continues past.
package statictime

import (
	"fmt"

	"ilp/internal/isa"
	"ilp/internal/machine"
)

// Block is one analyzed basic block [Leader, End).
type Block struct {
	Leader, End int
	// Label is the program symbol at the leader, if any.
	Label string
	// DepHeight, WidthBound and UnitBound are the three span lower bounds;
	// Span is their max: in any execution of the full block, the last
	// instruction issues at least Span minor cycles after the first.
	DepHeight, WidthBound, UnitBound, Span int64
	// ConflictFree reports that every instruction in the block (terminator
	// included) issues to a unit with multiplicity ≥ issue width and issue
	// latency 1, so unit contention cannot occur.
	ConflictFree bool
	// ExactSpan is the clean-entry span of the full block (terminator
	// included) when ConflictFree, else -1. Since a clean entry is a
	// realizable best case, ExactSpan ≥ Span must hold (checked by the
	// verify timing pass as an internal-consistency oracle).
	ExactSpan int64
}

// Analysis holds the static timing analysis of one program against one
// machine description.
type Analysis struct {
	Prog *isa.Program
	Cfg  *machine.Config
	// Blocks partitions [0, len(Prog.Instrs)) in ascending leader order.
	Blocks []Block
	// Deltas[i] is instruction i's upper-bound potential increment: no
	// engine timing quantity (cycle+1, barrier, scoreboard or unit busy
	// time) can grow by more than Deltas[i] when i issues. The sum over
	// dynamic counts upper-bounds total minor cycles.
	Deltas []int64
	// Gaps[i] is instruction i's taken-exit gap: a taken transfer at i
	// separates its issue from the target's by at least Gaps[i] minor
	// cycles (latency + branch redirect when a taken branch ends its
	// group; 0 otherwise).
	Gaps []int64

	blockOf []int32 // instruction index -> index into Blocks
}

// Analyze runs the static timing analysis. The program and machine are
// validated first; analysis itself cannot fail on validated input.
func Analyze(p *isa.Program, cfg *machine.Config) (*Analysis, error) {
	if cfg == nil {
		return nil, fmt.Errorf("statictime: no machine description")
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("statictime: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("statictime: %w", err)
	}

	n := len(p.Instrs)
	a := &Analysis{
		Prog:    p,
		Cfg:     cfg,
		Deltas:  make([]int64, n),
		Gaps:    make([]int64, n),
		blockOf: make([]int32, n),
	}

	// Per-class unit facts, mirroring the predecoder: a unit "binds" (can
	// stall, books a lane) iff its multiplicity is below the issue width or
	// its issue latency exceeds one.
	unitOf, err := cfg.ClassUnits()
	if err != nil {
		return nil, fmt.Errorf("statictime: %w", err)
	}
	var binds [isa.NumClasses]bool
	for cl, ui := range unitOf {
		u := &cfg.Units[ui]
		binds[cl] = u.Multiplicity < cfg.IssueWidth || u.IssueLatency != 1
	}

	a.deltasAndGaps()

	// Blocks run from each leader to the next.
	leader := p.Leaders()
	for start := 0; start < n; {
		end := start + 1
		for end < n && !leader[end] {
			end++
		}
		b := a.analyzeBlock(start, end, &binds, &unitOf)
		for i := start; i < end; i++ {
			a.blockOf[i] = int32(len(a.Blocks))
		}
		a.Blocks = append(a.Blocks, b)
		start = end
	}
	return a, nil
}

// deltasAndGaps fills the per-instruction upper-bound increments and
// taken-exit gaps.
//
// The upper bound is a potential argument over the engine's timing state.
// Let Φ = max(cycle+1, barrier, max scoreboard ready time, max unit busy
// time). Initially Φ = 1. When instruction i issues, its slot is at most
// max(cycle+1, barrier) plus the instruction-cache miss penalty, its issue
// at most that (operand, write-order and unit waits only lift issue to
// times already ≤ Φ + ipen), and every state update then adds at most
// max(1, latency(+load miss), unit issue latency, taken-transfer gap,
// store-miss barrier) on top. So Φ grows by at most Deltas[i] per dynamic
// instruction, and final minor cycles (lastComplete ≤ Φ) are bounded by
// 1 + Σ counts[i]·Deltas[i].
func (a *Analysis) deltasAndGaps() {
	cfg := a.Cfg
	takenEnds := cfg.TakenBranchEndsGroup
	redirect := int64(cfg.BranchRedirect)
	var ipen, dpen int64
	if cfg.ICache != nil {
		ipen = int64(cfg.ICache.MissPenalty)
	}
	if cfg.DCache != nil {
		dpen = int64(cfg.DCache.MissPenalty)
	}
	unitOf, _ := cfg.ClassUnits()
	for i := range a.Prog.Instrs {
		in := &a.Prog.Instrs[i]
		info := in.Op.Info()
		cl := in.Op.Class()
		lat := int64(cfg.Latency[cl])
		il := int64(cfg.Units[unitOf[cl]].IssueLatency)
		isPrint := in.Op == isa.OpPrinti || in.Op == isa.OpPrintf
		d := max(int64(1), lat, il)
		if info.Load {
			d = max(d, lat+dpen)
		}
		if info.Store && !isPrint {
			d = max(d, dpen) // store miss raises the barrier by the penalty
		}
		if info.Branch && takenEnds {
			gap := lat + redirect
			a.Gaps[i] = gap
			d = max(d, gap)
		}
		a.Deltas[i] = ipen + d
	}
}

// analyzeBlock computes one block's bounds and, when it is conflict-free,
// its exact clean-entry span.
func (a *Analysis) analyzeBlock(start, end int, binds *[isa.NumClasses]bool, unitOf *[isa.NumClasses]int) Block {
	p, cfg := a.Prog, a.Cfg
	b := Block{Leader: start, End: end, Label: p.Symbols[start], ExactSpan: -1}

	// Dependence height: a forward pass with a per-register availability
	// scoreboard, mirroring the engine's stall rules relative to the
	// block's first issue. h[j] ≥ h[j-1] (in-order), a RAW source defined
	// at i in-block forces h[j] ≥ h[i]+lat(i), and a WAW overwrite forces
	// h[j] ≥ h[i]+lat(i)-lat(j). Entry state can only delay further, so
	// the final h is a span lower bound for every execution.
	var avail [isa.NumRegs]int64 // in-block def availability; 0 = no def (no constraint)
	var unitCount [isa.NumClasses]int64
	h := int64(0)
	cf := true
	for j := start; j < end; j++ {
		in := &p.Instrs[j]
		cl := in.Op.Class()
		lat := int64(cfg.Latency[cl])
		s1, s2, dst := effRegs(in)
		h = max(h, avail[s1], avail[s2])
		if dst != isa.NoReg {
			h = max(h, avail[dst]-lat)
			avail[dst] = h + lat
		}
		unitCount[cl]++
		if binds[cl] {
			cf = false
		}
	}
	b.DepHeight = h

	nb := int64(end - start)
	width := int64(cfg.IssueWidth)
	b.WidthBound = (nb - 1) / width // == ceil(nb/width) - 1

	// Resource pressure per unit: aggregate the block's class counts onto
	// units, then apply the multiplicity pigeonhole. For units that cannot
	// bind the engine books no lane, but the bound value is then dominated
	// by WidthBound (multiplicity ≥ width, issue latency 1), so the max
	// stays sound.
	var unitIssues []int64
	for cl, c := range unitCount {
		if c == 0 {
			continue
		}
		if unitIssues == nil {
			unitIssues = make([]int64, len(cfg.Units))
		}
		unitIssues[unitOf[cl]] += c
	}
	for ui, c := range unitIssues {
		if c == 0 {
			continue
		}
		u := &cfg.Units[ui]
		m := int64(u.Multiplicity)
		if pressure := (c - 1) / m * int64(u.IssueLatency); pressure > b.UnitBound {
			b.UnitBound = pressure
		}
	}
	b.Span = max(b.DepHeight, b.WidthBound, b.UnitBound)
	b.ConflictFree = cf

	if cf {
		b.ExactSpan = cleanSpan(p, cfg, start, end)
	}
	return b
}

// effRegs returns the engine's effective operands for an instruction:
// sources as the scoreboard probes them (absent sources remapped to r0,
// which is never busy) and the scoreboarded destination (NoReg when absent
// or r0, matching the engine's fDst rule).
func effRegs(in *isa.Instr) (s1, s2, dst isa.Reg) {
	info := in.Op.Info()
	s1, s2, dst = isa.RZero, isa.RZero, isa.NoReg
	if info.NSrc >= 1 && in.Src1 != isa.NoReg {
		s1 = in.Src1
	}
	if info.NSrc >= 2 && in.Src2 != isa.NoReg {
		s2 = in.Src2
	}
	if info.HasDst && in.Dst != isa.NoReg && in.Dst != isa.RZero {
		dst = in.Dst
	}
	return s1, s2, dst
}

// cleanSpan simulates the engine's issue discipline over [start, end) from a
// clean entry — the first instruction issues at relative time 0 (the entry
// slot) and every register starts with scoreboard time ≤ 0 — and returns the
// last instruction's issue offset. All instructions must be conflict-free
// (no unit term), which the caller guarantees; there are then no other
// inputs, so the span is exact for any real entry whose registers are
// quiescent.
func cleanSpan(p *isa.Program, cfg *machine.Config, start, end int) int64 {
	width := int64(cfg.IssueWidth)
	var avail [isa.NumRegs]int64
	var cycle, inCycle, issue int64
	for j := start; j < end; j++ {
		in := &p.Instrs[j]
		lat := int64(cfg.Latency[in.Op.Class()])
		s1, s2, dst := effRegs(in)
		if j == start {
			// Entry slot: the first instruction issues exactly at the
			// barrier once the registers are quiescent.
			issue, inCycle = 0, 1
		} else {
			var over int64
			if inCycle >= width {
				over = 1
			}
			issue = max(cycle+over, avail[s1], avail[s2])
			if dst != isa.NoReg {
				issue = max(issue, avail[dst]-lat)
			}
			if issue > cycle {
				cycle, inCycle = issue, 1
			} else {
				inCycle++
			}
		}
		if dst != isa.NoReg {
			avail[dst] = issue + lat
		}
	}
	return issue
}

// BlockOf returns the index into Blocks of the block containing instruction
// i, or -1 when out of range.
func (a *Analysis) BlockOf(i int) int {
	if i < 0 || i >= len(a.blockOf) {
		return -1
	}
	return int(a.blockOf[i])
}

// LowerBound combines the per-block spans with dynamic execution counts
// into a whole-program minor-cycle lower bound. counts[i] is the number of
// times instruction i issued and exits[i] the number of taken transfers
// (or halts) that left from i — the engine reports both via
// Options.CountInstrs. Three independent arguments are maxed:
//
//   - span tiling: every arrival at a block leader executes the full block
//     (within a block only the last instruction can transfer out), whose
//     first-to-last issue distance is at least Span; every taken transfer
//     adds its redirect gap; all these intervals are disjoint segments of
//     the monotone issue line. Mid-block entries (computed jumps) execute
//     a suffix only and are deliberately not counted — the leader count is
//     a sound undercount.
//   - the global width pigeonhole ⌈N/width⌉;
//   - the global per-unit pressure pigeonhole.
//
// The last instruction's completion adds the trailing +1 (latency ≥ 1).
// Zero-length or never-run programs return 0.
func (a *Analysis) LowerBound(counts, exits []int64) int64 {
	n := len(a.Prog.Instrs)
	var total int64
	for i := 0; i < n && i < len(counts); i++ {
		total += counts[i]
	}
	if total == 0 {
		return 0
	}

	var spanSum int64
	for i := range a.Blocks {
		b := &a.Blocks[i]
		spanSum += counts[b.Leader] * b.Span
	}
	for i := 0; i < n && i < len(exits); i++ {
		spanSum += exits[i] * a.Gaps[i]
	}
	lb := spanSum + 1

	width := int64(a.Cfg.IssueWidth)
	lb = max(lb, (total+width-1)/width)

	var unitIssues []int64
	unitOf, _ := a.Cfg.ClassUnits()
	for i := 0; i < n && i < len(counts); i++ {
		if counts[i] == 0 {
			continue
		}
		if unitIssues == nil {
			unitIssues = make([]int64, len(a.Cfg.Units))
		}
		unitIssues[unitOf[a.Prog.Instrs[i].Op.Class()]] += counts[i]
	}
	for ui, c := range unitIssues {
		if c == 0 {
			continue
		}
		u := &a.Cfg.Units[ui]
		lb = max(lb, (c-1)/int64(u.Multiplicity)*int64(u.IssueLatency)+1)
	}
	return lb
}

// UpperBound bounds the program's minor cycles from above given dynamic
// execution counts: 1 + Σ counts[i]·Deltas[i] (see deltasAndGaps for the
// potential argument). A never-run program returns 0.
func (a *Analysis) UpperBound(counts []int64) int64 {
	n := len(a.Prog.Instrs)
	var total, sum int64
	for i := 0; i < n && i < len(counts); i++ {
		total += counts[i]
		sum += counts[i] * a.Deltas[i]
	}
	if total == 0 {
		return 0
	}
	return sum + 1
}
