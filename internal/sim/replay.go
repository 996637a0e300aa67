package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/statictime"
)

// replayMinLen is the smallest trace worth replaying: below it the
// precondition scan and bulk writeback cost about as much as the
// per-instruction issue steps they replace.
const replayMinLen = 3

// maxTraceLen caps the instructions one trace covers, which bounds both the
// build cost per leader and the distance between two instruction-limit and
// cancellation polls in a replaying engine.
const maxTraceLen = 64

// uopEnd terminates a trace's micro-op stream: leave through exit aux (the
// final fallthrough). Like the predecoder's opHooked, it takes the value
// after opOutOfRange, just past the architectural opcodes.
const uopEnd = isa.Opcode(isa.NumOpcodes + 1)

// regSink is the scratch register index micro-ops write when the
// architectural destination is the hardwired zero: e.regs is 256 wide (only
// isa.NumRegs are architectural), so the store lands harmlessly and the
// executor needs no per-write r0 branch.
const regSink = isa.Reg(255)

// uop is one micro-op of a trace's flattened semantic stream: the whole
// multi-block trace — straight-line bodies, guarded side exits, stitched
// jump seams (which vanish entirely: their timing lives in the per-exit
// offsets, their counter bumps in traceExit.jumps) — executes as a single
// dense 16-byte-per-op loop with no step walking and no per-segment calls.
// Timing was proven statically; micro-ops only move values.
type uop struct {
	op  isa.Opcode // architectural opcode, or uopEnd
	dst isa.Reg    // destination (r0 remapped to regSink)
	s1  isa.Reg
	s2  isa.Reg
	// aux is the exit index for branch micro-ops and uopEnd, and the
	// original pc for micro-ops that can fault (div, rem, loads, stores,
	// cvtfi) so error messages match the per-instruction path exactly.
	aux int32
	// imm is the architectural immediate; for fli it holds the float
	// constant's bit pattern.
	imm int64
}

// traceJump is one in-trace unconditional jump's block-counter bookkeeping.
type traceJump struct {
	at, target int32
}

// regWrite is one final scoreboard write of a trace exit: register reg
// becomes ready off minor cycles after the trace's entry slot.
type regWrite struct {
	reg isa.Reg
	off int64
}

// traceExit is one way control leaves a trace: the exact cumulative timing
// advance, relative to the entry slot s = barrier, of the n instructions
// executed when the run leaves here.
type traceExit struct {
	at     int32 // branch pc (side exits), -1 for the fallthrough
	target int32 // pc the engine resumes at
	// taken reports a taken transfer: the engine bumps the block counters
	// exit[at] and enter[target]. An untaken side exit is a specialized
	// guard that fired (a mispath).
	taken  bool
	stable bool // back-edge to the trace start, precondition self-renewing
	n      int64
	// Bulk timing advance. The stalls are the trace's internal ones: the
	// first instruction's width and branch stalls depend on the entry state
	// and are charged by the engine.
	cycleAdv     int64 // the engine's cycle becomes s+cycleAdv
	inCycle      int64
	groups       int64 // issue groups opened, the entry group included
	widthStalls  int64
	branchStalls int64
	dataStalls   int64
	writeStalls  int64
	maxComplete  int64       // lastComplete advances to at least s+maxComplete
	barrierOff   int64       // the barrier after the exit is s+barrierOff
	writes       []regWrite  // every register written, ascending
	jumps        []traceJump // in-trace jumps passed before this exit
	// pathBits holds, in its low pathLen bits, the conditional-branch
	// outcomes a run leaving here implies, in path order (bit i is the i-th
	// guard's branch, 1 = taken): every guard before this exit passed, and
	// this exit's own guard, if it has one, fired. A recording engine
	// appends them in O(1) per exit (see Path).
	pathBits uint64
	pathLen  int64
}

// traceSched is one superblock trace as the engine replays it: the
// micro-ops, and for every way out the exact timing advance.
//
// Validity at runtime needs exactly two facts the engine checks on entry:
// the barrier is a fresh taken-branch barrier (barrier > cycle, so the first
// trace instruction issues exactly at the barrier), and every register the
// trace touches has scoreboard time ≤ barrier (checkRegs). Everything else
// was proven static: every trace instruction issues to a unit the predecoder
// elides (fUnit clear), so no lane is scanned or booked and the relative
// issue offsets cannot depend on entry state; in-trace jump barriers are
// folded into the per-exit offsets.
type traceSched struct {
	uops      []uop
	exits     []traceExit
	checkRegs []isa.Reg // every register the trace reads or writes, r0 excluded, ascending

	// guardPass holds, in bit g, the branch outcome that lets a run
	// continue past the trace's guard g (its g-th conditional branch):
	// untaken for an ordinary guard, taken for one the profile specialized.
	// Exits are numbered in walk order, so guard g leaves through exit g
	// and the final fallthrough is the last exit, len(exits)-1, which is
	// also the guard count. A trace covers at most 64 instructions, so its
	// guards fit one word.
	guardPass uint64
}

// pick selects the exit a run through t takes from the next recorded
// branch outcomes w (bit i is the i-th next outcome; avail of them remain
// on the path): the first guard whose outcome differs from guardPass fires,
// and a run that passes every guard leaves through the end. It returns the
// exit and the outcomes it consumed, or ok false when the path ends before
// the exit is decided.
func (t *traceSched) pick(w uint64, avail int64) (exit int, used int64, ok bool) {
	n := int64(len(t.exits) - 1)
	x := w ^ t.guardPass
	if k := min(n, avail); k < 64 {
		x &= 1<<uint(k) - 1
	}
	if x != 0 {
		g := bits.TrailingZeros64(x)
		return g, int64(g) + 1, true
	}
	if avail < n {
		return 0, 0, false
	}
	return int(n), n, true
}

// buildScheds builds the superblock trace of every block leader of p from
// its predecoded form dec, indexed by pc over len(dec) (so the sentinel pc
// indexes safely; its entry is nil), or returns nil when no leader keeps
// one. A trace follows the leader's straight-line continuation through
// unconditional jumps, stitched across the seam, and past conditional
// branches, each a guarded side exit. Past a branch the execution profile
// prof (nil for none) marks likely-taken, it follows the taken edge instead,
// and the untaken direction becomes the guarded exit: the profile only
// selects which traces exist, so a wrong one costs mispath exits, never
// timing. Machines whose taken branches do not end their issue group get
// no traces: the entry condition, a fresh taken-branch barrier, exists only
// under that discipline.
func buildScheds(p *isa.Program, cfg *machine.Config, dec []decoded, prof *statictime.Profile) []*traceSched {
	if !cfg.TakenBranchEndsGroup {
		return nil
	}
	b := &traceBuilder{
		dec:      dec,
		prof:     prof,
		width:    int64(cfg.IssueWidth),
		redirect: int64(cfg.BranchRedirect),
		seen:     make([]int32, len(dec)-1),
	}
	var out []*traceSched
	// The engine attempts a replay only at taken-transfer targets, all of
	// them leaders.
	for pc, leader := range p.Leaders() {
		if !leader {
			continue
		}
		if t := b.build(pc); t != nil {
			if out == nil {
				out = make([]*traceSched, len(dec))
			}
			out[pc] = t
		}
	}
	return out
}

// traceBuilder is buildScheds' state. Each trace is built into the scratch
// slices, which every leader reuses, and copied out only if kept.
type traceBuilder struct {
	dec             []decoded
	prof            *statictime.Profile
	width, redirect int64
	// seen[pc] == stamp marks pc as on the trace being built. Each leader
	// has its own stamp, so the buffer is never cleared.
	seen []int32

	uops []uop
	// exits' writes and jumps point into writes and jumps until the trace
	// is copied out. Both only grow while a trace is built, so a slice
	// taken earlier keeps its contents even where append has moved on.
	exits  []traceExit
	writes []regWrite
	jumps  []traceJump // the in-trace jumps so far: each exit's are a prefix

	// The registers the trace being built reads or writes; those it
	// writes, ascending; and their scoreboard times. Latencies are at least
	// one, so a register is written once its time is positive.
	touched regSet
	written []isa.Reg
	avail   [isa.NumRegs]int64
	traceState
}

// regSet is a set of registers: bit r%64 of word r/64 stands for r.
type regSet [isa.NumRegs / 64]uint64

func (s *regSet) add(r isa.Reg) { s[r/64] |= 1 << (r % 64) }

// slice returns the registers in s in ascending order, or nil if s is
// empty.
func (s *regSet) slice() []isa.Reg {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return nil
	}
	rs := make([]isa.Reg, 0, n)
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			rs = append(rs, isa.Reg(i*64+bits.TrailingZeros64(w)))
		}
	}
	return rs
}

// traceState is the symbolic issue state of the trace being built, as
// offsets from its entry slot.
type traceState struct {
	start                          int
	n                              int64 // instructions issued
	cycle, inCycle, groups         int64
	widthS, branchS, dataS, writeS int64
	maxComplete, barrierOff        int64
	guardPass                      uint64
}

// build walks the straight-line continuation from the leader start,
// applying runFast's issue steps symbolically with every quantity an offset
// from the entry slot s: the first instruction issues at 0, and a stitched
// seam raises the barrier to its issue + latency + redirect, as the
// taken-transfer epilogue would. So one walk yields every exit's exact
// timing and the micro-ops that move the trace's values (DESIGN.md §6.4
// states the argument). It returns the trace, or nil when the trace covers
// fewer than replayMinLen instructions. The walk stops at the first
// instruction whose unit binds, that transfers control unpredictably (jal,
// jr) or halts, that is already on the trace, or that would exceed
// maxTraceLen.
func (b *traceBuilder) build(start int) *traceSched {
	b.reset(start)
	dec := b.dec
	n := len(dec) - 1 // drop the sentinel
	stamp := int32(start) + 1
	pos := start
	for pos < n && b.seen[pos] != stamp && b.n < maxTraceLen {
		d := &dec[pos]
		if d.flags&fUnit != 0 || d.op == isa.OpJal || d.op == isa.OpJr || d.op == isa.OpHalt {
			break
		}
		b.seen[pos] = stamp
		b.touched.add(d.src1)
		b.touched.add(d.src2)
		dst := isa.NoReg
		if d.flags&fDst != 0 {
			dst = d.dst
			b.touched.add(dst)
		}
		issue := b.issue(d, dst)
		switch {
		case d.op.Info().Cond && b.prof.LikelyTaken(pos):
			// Specialized: the profile says this branch is almost always
			// taken, so the trace follows the taken edge. Its guard tests
			// the inverted condition and leaves through the untaken side
			// exit, recorded before the seam's barrier and jump because an
			// untaken branch neither ends its issue group nor bumps block
			// counters.
			x := b.addExit(pos, pos+1, false, b.barrierOff)
			b.uops = append(b.uops, uop{op: d.op.Inverted(), s1: d.src1, s2: d.src2, aux: x})
			b.guardPass |= 1 << uint(x)
			b.seam(pos, d, issue)
			pos = int(d.target)
		case d.op.Info().Cond:
			x := b.addExit(pos, int(d.target), true, max(b.barrierOff, issue+d.lat+b.redirect))
			b.uops = append(b.uops, uop{op: d.op, s1: d.src1, s2: d.src2, aux: x})
			pos++
		case d.op == isa.OpJ:
			b.seam(pos, d, issue)
			pos = int(d.target)
		default:
			if d.op != isa.OpNop {
				b.uops = append(b.uops, segmentUop(pos, d))
			}
			pos++
		}
	}
	if b.n < replayMinLen {
		return nil
	}
	x := b.addExit(-1, pos, false, b.barrierOff)
	b.uops = append(b.uops, uop{op: uopEnd, aux: x})
	return b.keep()
}

// reset clears the scratch state for a trace rooted at start.
func (b *traceBuilder) reset(start int) {
	for _, r := range b.written {
		b.avail[r] = 0
	}
	b.touched, b.written = regSet{}, b.written[:0]
	b.uops, b.exits, b.writes, b.jumps = b.uops[:0], b.exits[:0], b.writes[:0], b.jumps[:0]
	b.traceState = traceState{start: start}
}

// issue applies runFast's issue steps to d, whose scoreboarded destination
// is dst (NoReg for none), and returns its issue offset. No unit step: no
// trace instruction's unit binds.
func (b *traceBuilder) issue(d *decoded, dst isa.Reg) int64 {
	var issue int64
	if b.n == 0 {
		// The entry slot: by the precondition the first instruction issues
		// exactly at the barrier, offset 0. Its width and branch stalls
		// depend on the entry state and are charged by the engine.
		b.inCycle, b.groups = 1, 1
	} else {
		var over int64
		if b.inCycle >= b.width {
			over = 1
		}
		slot := b.cycle + over
		b.widthS += over
		if b.barrierOff > slot {
			// An in-trace barrier is always a taken-branch barrier, so the
			// engine books the wait as a branch stall.
			b.branchS += b.barrierOff - slot
			slot = b.barrierOff
		}
		issue = max(slot, b.avail[d.src1], b.avail[d.src2])
		b.dataS += issue - slot
		if dst != isa.NoReg {
			m := max(issue, b.avail[dst]-d.lat)
			b.writeS += m - issue
			issue = m
		}
		if issue > b.cycle {
			b.cycle, b.inCycle = issue, 1
			b.groups++
		} else {
			b.inCycle++
		}
	}
	complete := issue + d.lat
	if dst != isa.NoReg {
		if b.avail[dst] == 0 {
			i, _ := slices.BinarySearch(b.written, dst)
			b.written = slices.Insert(b.written, i, dst)
		}
		b.avail[dst] = complete
	}
	b.maxComplete = max(b.maxComplete, complete)
	b.n++
	return issue
}

// seam stitches the trace across the taken transfer d at pc, issued at
// issue: the target may not issue before the transfer's barrier, and the
// transfer's block counters are bumped when the run leaves the trace.
func (b *traceBuilder) seam(pc int, d *decoded, issue int64) {
	b.barrierOff = max(b.barrierOff, issue+d.lat+b.redirect)
	b.jumps = append(b.jumps, traceJump{at: int32(pc), target: d.target})
}

// addExit records a way out of the trace with the state the walk has
// reached: through the branch at pc at, or at -1 for the final fallthrough,
// to target, taken or not, leaving the barrier at offset bOff. It returns
// the exit's index, which for a guard's exit is the guard's index.
func (b *traceBuilder) addExit(at, target int, taken bool, bOff int64) int32 {
	g := len(b.exits)
	ex := traceExit{
		at: int32(at), target: int32(target), taken: taken, n: b.n,
		cycleAdv: b.cycle, inCycle: b.inCycle, groups: b.groups,
		widthStalls: b.widthS, branchStalls: b.branchS,
		dataStalls: b.dataS, writeStalls: b.writeS,
		maxComplete: b.maxComplete, barrierOff: bOff,
		// The earlier guards passed; a guard's own exit means it fired, and
		// it fires on the outcome that leaves: taken for an ordinary guard,
		// untaken for a specialized one.
		pathBits: b.guardPass, pathLen: int64(g),
	}
	if at >= 0 {
		if taken {
			ex.pathBits |= 1 << uint(g)
		}
		ex.pathLen++
	}
	if len(b.jumps) > 0 {
		ex.jumps = b.jumps
	}
	// A back-edge to the trace's start is stable, so that re-entry needs no
	// register check, when it re-enters behind a fresh barrier with every
	// write ready by it. Every in-trace barrier comes from a taken
	// transfer, so the barrier is fresh while it is ahead of the cycle:
	// always after a taken side exit, whose branch's own barrier lies past
	// its issue, and after a fallthrough only behind a stitched seam.
	ex.stable = target == b.start && bOff > b.cycle
	if len(b.written) > 0 {
		w0 := len(b.writes)
		for _, r := range b.written {
			b.writes = append(b.writes, regWrite{reg: r, off: b.avail[r]})
			if b.avail[r] > bOff {
				ex.stable = false
			}
		}
		ex.writes = b.writes[w0:]
	}
	b.exits = append(b.exits, ex)
	return int32(g)
}

// keep copies the trace built in the scratch slices out into memory of its
// own.
func (b *traceBuilder) keep() *traceSched {
	t := &traceSched{
		uops:      slices.Clone(b.uops),
		exits:     slices.Clone(b.exits),
		guardPass: b.guardPass,
	}
	jumps := slices.Clone(b.jumps)
	writes := make([]regWrite, 0, len(b.writes))
	for i := range t.exits {
		ex := &t.exits[i]
		if ex.jumps != nil {
			ex.jumps = jumps[:len(ex.jumps):len(ex.jumps)]
		}
		if ex.writes != nil {
			w0 := len(writes)
			writes = append(writes, ex.writes...)
			ex.writes = writes[w0:len(writes):len(writes)]
		}
	}
	touched := b.touched
	touched[0] &^= 1 // r0 is never scoreboarded
	t.checkRegs = touched.slice()
	return t
}

// segmentUop returns the micro-op of the straight-line instruction d at pc.
func segmentUop(pc int, d *decoded) uop {
	u := uop{op: d.op, dst: d.dst, s1: d.src1, s2: d.src2, aux: int32(pc), imm: d.imm}
	if d.op == isa.OpFli {
		u.imm = int64(math.Float64bits(d.fimm))
	}
	if u.dst == isa.RZero {
		// Only integer-file destinations can name r0 in a validated
		// program: honor the hardwired zero by diverting the write to the
		// sink slot.
		u.dst = regSink
	}
	return u
}

// traceExecU runs a trace's micro-op stream against live register and memory
// state and returns the index of the exit the run left through. The cases
// mirror runFast's non-control cases exactly — including error messages and
// dirty-memory tracking — so a replayed run is indistinguishable from an
// instruction-by-instruction one, error exits included. The timing advance
// was precomputed per exit and is applied in bulk by the caller; this loop
// only moves values.
func (e *Engine) traceExecU(uops []uop) (int, error) {
	mem := e.mem
	memLen := int64(len(mem))
	regs := &e.regs
	for i := 0; ; i++ {
		u := &uops[i]
		switch u.op {
		case isa.OpAdd:
			regs[u.dst] = regs[u.s1] + regs[u.s2]
		case isa.OpAddi:
			regs[u.dst] = regs[u.s1] + u.imm
		case isa.OpSub:
			regs[u.dst] = regs[u.s1] - regs[u.s2]
		case isa.OpMul:
			regs[u.dst] = regs[u.s1] * regs[u.s2]
		case isa.OpDiv:
			dv := regs[u.s2]
			if dv == 0 {
				return 0, fmt.Errorf("sim: pc %d (%s): integer division by zero", u.aux, &e.prog.Instrs[u.aux])
			}
			regs[u.dst] = regs[u.s1] / dv
		case isa.OpRem:
			dv := regs[u.s2]
			if dv == 0 {
				return 0, fmt.Errorf("sim: pc %d (%s): integer remainder by zero", u.aux, &e.prog.Instrs[u.aux])
			}
			regs[u.dst] = regs[u.s1] % dv
		case isa.OpSlt:
			regs[u.dst] = b2i(regs[u.s1] < regs[u.s2])
		case isa.OpSle:
			regs[u.dst] = b2i(regs[u.s1] <= regs[u.s2])
		case isa.OpSeq:
			regs[u.dst] = b2i(regs[u.s1] == regs[u.s2])
		case isa.OpSne:
			regs[u.dst] = b2i(regs[u.s1] != regs[u.s2])
		case isa.OpAnd:
			regs[u.dst] = regs[u.s1] & regs[u.s2]
		case isa.OpOr:
			regs[u.dst] = regs[u.s1] | regs[u.s2]
		case isa.OpXor:
			regs[u.dst] = regs[u.s1] ^ regs[u.s2]
		case isa.OpAndi:
			regs[u.dst] = regs[u.s1] & u.imm
		case isa.OpOri:
			regs[u.dst] = regs[u.s1] | u.imm
		case isa.OpXori:
			regs[u.dst] = regs[u.s1] ^ u.imm
		case isa.OpSll:
			regs[u.dst] = regs[u.s1] << (uint64(regs[u.s2]) & 63)
		case isa.OpSrl:
			regs[u.dst] = int64(uint64(regs[u.s1]) >> (uint64(regs[u.s2]) & 63))
		case isa.OpSra:
			regs[u.dst] = regs[u.s1] >> (uint64(regs[u.s2]) & 63)
		case isa.OpSlli:
			regs[u.dst] = regs[u.s1] << (uint64(u.imm) & 63)
		case isa.OpSrli:
			regs[u.dst] = int64(uint64(regs[u.s1]) >> (uint64(u.imm) & 63))
		case isa.OpSrai:
			regs[u.dst] = regs[u.s1] >> (uint64(u.imm) & 63)
		case isa.OpLi, isa.OpFli:
			regs[u.dst] = u.imm
		case isa.OpMov, isa.OpFmov:
			regs[u.dst] = regs[u.s1]
		case isa.OpLw, isa.OpLf:
			memAddr := regs[u.s1] + u.imm
			if memAddr < 0 || memAddr >= memLen {
				return 0, fmt.Errorf("sim: pc %d (%s): address %d out of range", u.aux, &e.prog.Instrs[u.aux], memAddr)
			}
			regs[u.dst] = mem[memAddr]
		case isa.OpSw, isa.OpSf:
			memAddr := regs[u.s1] + u.imm
			if memAddr < 0 || memAddr >= memLen {
				return 0, fmt.Errorf("sim: pc %d (%s): address %d out of range", u.aux, &e.prog.Instrs[u.aux], memAddr)
			}
			mem[memAddr] = regs[u.s2]
			if a := int(memAddr); a < e.dirtyLo && a >= e.dataLen {
				e.dirtyLo = a
			}
			if a := int(memAddr); a > e.dirtyHi {
				e.dirtyHi = a
			}
		case isa.OpFadd:
			e.setRegF(u.dst, e.regF(u.s1)+e.regF(u.s2))
		case isa.OpFsub:
			e.setRegF(u.dst, e.regF(u.s1)-e.regF(u.s2))
		case isa.OpFneg:
			e.setRegF(u.dst, -e.regF(u.s1))
		case isa.OpFabs:
			e.setRegF(u.dst, math.Abs(e.regF(u.s1)))
		case isa.OpFmul:
			e.setRegF(u.dst, e.regF(u.s1)*e.regF(u.s2))
		case isa.OpFdiv:
			e.setRegF(u.dst, e.regF(u.s1)/e.regF(u.s2))
		case isa.OpCvtif:
			e.setRegF(u.dst, float64(regs[u.s1]))
		case isa.OpCvtfi:
			f := e.regF(u.s1)
			if math.IsNaN(f) || f >= 9.3e18 || f <= -9.3e18 {
				return 0, fmt.Errorf("sim: pc %d (%s): float-to-int overflow (%g)", u.aux, &e.prog.Instrs[u.aux], f)
			}
			regs[u.dst] = int64(f)
		case isa.OpFslt:
			regs[u.dst] = b2i(e.regF(u.s1) < e.regF(u.s2))
		case isa.OpFsle:
			regs[u.dst] = b2i(e.regF(u.s1) <= e.regF(u.s2))
		case isa.OpFseq:
			regs[u.dst] = b2i(e.regF(u.s1) == e.regF(u.s2))
		case isa.OpFsne:
			regs[u.dst] = b2i(e.regF(u.s1) != e.regF(u.s2))
		case isa.OpFsqrt:
			e.setRegF(u.dst, math.Sqrt(e.regF(u.s1)))
		case isa.OpFsin:
			e.setRegF(u.dst, math.Sin(e.regF(u.s1)))
		case isa.OpFcos:
			e.setRegF(u.dst, math.Cos(e.regF(u.s1)))
		case isa.OpFatn:
			e.setRegF(u.dst, math.Atan(e.regF(u.s1)))
		case isa.OpFexp:
			e.setRegF(u.dst, math.Exp(e.regF(u.s1)))
		case isa.OpFlog:
			e.setRegF(u.dst, math.Log(e.regF(u.s1)))
		case isa.OpPrinti:
			e.output = append(e.output, isa.IntValue(regs[u.s1]))
		case isa.OpPrintf:
			e.output = append(e.output, isa.FloatValue(e.regF(u.s1)))
		case isa.OpBeq:
			if regs[u.s1] == regs[u.s2] {
				return int(u.aux), nil
			}
		case isa.OpBne:
			if regs[u.s1] != regs[u.s2] {
				return int(u.aux), nil
			}
		case isa.OpBlt:
			if regs[u.s1] < regs[u.s2] {
				return int(u.aux), nil
			}
		case isa.OpBge:
			if regs[u.s1] >= regs[u.s2] {
				return int(u.aux), nil
			}
		case isa.OpBle:
			if regs[u.s1] <= regs[u.s2] {
				return int(u.aux), nil
			}
		case isa.OpBgt:
			if regs[u.s1] > regs[u.s2] {
				return int(u.aux), nil
			}
		case uopEnd:
			return int(u.aux), nil
		default:
			// Unreachable: segmentUop passes on only non-control opcodes,
			// every one of which has a case above.
			return 0, fmt.Errorf("sim: trace micro-op with unimplemented opcode %v", u.op)
		}
	}
}
