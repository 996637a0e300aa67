package sim

import (
	"fmt"

	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/statictime"
)

// dflags are per-instruction facts the inner loop would otherwise re-derive
// from isa.OpInfo on every dynamic instruction.
type dflags uint8

const (
	// fSrc1 and fSrc2 mark register sources read through the scoreboard.
	fSrc1 dflags = 1 << iota
	fSrc2
	// fDst marks a scoreboarded destination (HasDst, not r0).
	fDst
	// fMem marks instructions that compute a data-memory address
	// (loads and real stores; prints ship through the output port).
	fMem
	// fLoad mirrors OpInfo.Load: a load's data-cache miss adds to its
	// latency.
	fLoad
	// fUnit marks instructions whose functional unit can actually bind:
	// the lane scan and the issue-latency booking only matter when the
	// unit's multiplicity is below the machine's issue width or its issue
	// latency exceeds one. Otherwise at most width-1 other instructions
	// can have booked a lane in the current minor cycle and every older
	// booking is already free, so a free lane always exists at the issue
	// slot — the scan can neither stall nor bind, and the fast path skips
	// it entirely. Ideal machines (the sweep's hot spot) skip every unit.
	fUnit
)

// decoded is one predecoded instruction: everything the timing loop needs,
// flattened so the hot path touches at most one cache line per instruction
// and never calls Op.Info(), Op.Class(), or the class→unit map, in the
// spirit of Shade-style predecoded translation caching. Entries are 56
// bytes — purely static facts, no per-run state — so a predecoded program
// (see Code) is immutable and can be shared read-only across engines.
type decoded struct {
	op  isa.Opcode // architectural opcode (hooked runs, walks, errors)
	fop isa.Opcode // runFast's dispatch opcode: op, a fused superinstruction or opHooked
	// class is the instruction's isa.Class; dynamic per-class counts are
	// kept per-engine (folded from block entry/exit counters on the fast
	// path), never here.
	class uint8
	flags dflags
	dst   isa.Reg // raw destination (may be r0; fDst already excludes it)
	src1  isa.Reg
	src2  isa.Reg

	unitOff  int32 // offset of the unit's copies in engine.unitFree
	unitLen  int32 // number of copies (multiplicity)
	target   int32 // resolved branch/jump target
	issueLat int64 // unit issue latency, minor cycles
	lat      int64 // base operation latency, minor cycles
	imm      int64
	fimm     float64
}

// opOutOfRange is the opcode of the sentinel decoded entry appended after
// the last real instruction. A validated program can only leave [0, n) by
// falling off the end (pc == n, which lands on the sentinel and reports the
// out-of-range error from inside the fast loop's switch) or through jr
// (whose computed target is range-checked in its case) — so the fast loop
// needs no per-instruction pc bounds check. The value extends the opcode
// jump table by one slot, keeping it dense.
const opOutOfRange = isa.Opcode(isa.NumOpcodes)

// opFusedAluBr is the fast-path dispatch opcode of a fused superinstruction:
// an integer ALU op immediately followed by a conditional branch (the
// compare+branch and induction-increment+branch idioms that close almost
// every loop). The head entry dispatches the pair as one case; the branch's
// own entry at i+1 stays intact, so jumps that land on the branch directly
// still execute it standalone. Hooked runs and walks dispatch on the
// architectural op, so they run a fused pair as its two instructions.
const opFusedAluBr = isa.Opcode(isa.NumOpcodes + 1)

// opFusedAluAlu is the fast-path dispatch opcode of a fused pair of integer
// ALU instructions: straight-line code runs two instructions per dispatch,
// halving interpreter overhead (the indirect switch branch and the loop
// epilogue) on the sequential bodies between branches. As with
// opFusedAluBr, the second entry stays intact for direct jumps.
const opFusedAluAlu = isa.Opcode(isa.NumOpcodes + 2)

// opHooked is the dispatch opcode of every instruction of a hooked run's own
// copy of the program (see Engine.arm): runFast reports the instruction to
// the OnIssue/OnTrace hooks, then dispatches on its architectural opcode.
const opHooked = isa.Opcode(isa.NumOpcodes + 3)

// Code is an immutable predecoded program: the translation of one
// isa.Program against one machine schedule. It carries no per-run state, so
// a single Code may back any number of concurrent engines — the experiments
// runner predecodes once per (program, machine-schedule) pair and shares the
// artifact read-only across all sweep workers.
type Code struct {
	prog    *isa.Program
	cfg     *machine.Config
	schedFP string
	dec     []decoded
	// scheds are the static-timing superblock trace schedules
	// (internal/statictime), indexed by trace-root pc; nil when the machine
	// qualifies no trace. Like dec they are immutable static facts, valid
	// for any machine the schedule fingerprint accepts.
	scheds []*traceSched
}

// Superblocks returns the number of superblock traces attached to the Code:
// multi-block straight-line regions whose exact issue/stall schedules were
// proven statically, replayed by the engine in O(1) per dispatch.
func (c *Code) Superblocks() int {
	n := 0
	for _, t := range c.scheds {
		if t != nil {
			n++
		}
	}
	return n
}

// CondTraces returns the number of specialized traces attached to the Code:
// traces that continue past a profiled likely-taken conditional branch
// behind a mispath guard (see Specialize).
func (c *Code) CondTraces() int {
	n := 0
	for _, t := range c.scheds {
		if t == nil {
			continue
		}
		for _, st := range t.steps {
			if st.kind == stepCondTaken {
				n++
				break
			}
		}
	}
	return n
}

// Specialize returns a Code sharing this one's predecoded instructions but
// with trace schedules rebuilt under prof: conditional branches the profile
// marks likely-taken continue their traces along the taken edge, guarded by
// a mispath side exit that falls back to the block interpreter. Timing is
// bit-identical by construction — the profile only chooses which traces
// exist. The receiver is not modified; like any Code, the result is
// immutable and shareable.
func (c *Code) Specialize(prof *statictime.Profile) *Code {
	out := *c
	out.scheds = buildScheds(c.prog, c.cfg, c.dec, prof)
	return &out
}

// Predecode translates a validated program against a machine description
// into an immutable, shareable Code. Pass it via Options.Code to any run
// whose machine has the same schedule fingerprint (cache geometry and the
// machine name may differ — predecode depends only on the schedule).
func Predecode(p *isa.Program, cfg *machine.Config) (*Code, error) {
	return PredecodeProfiled(p, cfg, nil)
}

// PredecodeProfiled is Predecode with the trace schedules built under the
// execution profile prof in the same pass: the result equals Predecode
// followed by Specialize(prof), without first building the unprofiled
// traces Specialize would discard. A nil profile builds exactly Predecode's
// Code.
func PredecodeProfiled(p *isa.Program, cfg *machine.Config, prof *statictime.Profile) (*Code, error) {
	if cfg == nil {
		return nil, fmt.Errorf("sim: no machine description")
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	dec := predecodeInto(nil, p, cfg)
	return &Code{
		prog:    p,
		cfg:     cfg,
		schedFP: cfg.ScheduleFingerprint(),
		dec:     dec,
		scheds:  buildScheds(p, cfg, dec, prof),
	}, nil
}

// Instructions returns the number of (real) instructions predecoded.
func (c *Code) Instructions() int { return len(c.dec) - 1 }

// matches reports whether the Code can stand in for predecoding p against
// cfg: it must come from the same program, and from the same machine
// schedule (pointer-identical config, or equal schedule fingerprint).
func (c *Code) matches(p *isa.Program, cfg *machine.Config) error {
	if c.prog == nil {
		return fmt.Errorf("sim: Options.Code is empty (use Predecode)")
	}
	if c.prog != p {
		return fmt.Errorf("sim: Options.Code was predecoded from a different program")
	}
	if c.cfg != cfg && c.schedFP != cfg.ScheduleFingerprint() {
		return fmt.Errorf("sim: Options.Code was predecoded for machine %q, whose schedule differs from %q", c.cfg.Name, cfg.Name)
	}
	return nil
}

// fusibleALU reports whether op qualifies as the head of a fused
// ALU+branch pair: a single-cycle-semantics integer op with no side effects
// beyond its destination register (no memory, no traps, no control).
// The set must match the semantic sub-switch in runFast's opFusedAluBr case.
func fusibleALU(op isa.Opcode) bool {
	switch op {
	case isa.OpAdd, isa.OpAddi, isa.OpSub,
		isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpAndi, isa.OpOri, isa.OpXori,
		isa.OpSlt, isa.OpSle, isa.OpSeq, isa.OpSne,
		isa.OpSll, isa.OpSrl, isa.OpSra,
		isa.OpSlli, isa.OpSrli, isa.OpSrai,
		isa.OpLi, isa.OpMov:
		return true
	}
	return false
}

// condBranch reports whether op is a conditional branch.
func condBranch(op isa.Opcode) bool {
	switch op {
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBle, isa.OpBgt:
		return true
	}
	return false
}

// predecodeInto translates the program against the machine description into
// dec (plus the trailing sentinel), reusing dec's backing array when it is
// large enough. The result holds only static facts; engines never write it.
func predecodeInto(dec []decoded, p *isa.Program, cfg *machine.Config) []decoded {
	// Per-class unit facts, derived once (the seed engine derived the
	// class→unit mapping per engine but still chased OpInfo per dynamic
	// instruction).
	var classOff, classLen [isa.NumClasses]int32
	var classIssueLat [isa.NumClasses]int64
	var classBinds [isa.NumClasses]bool
	off := int32(0)
	for _, u := range cfg.Units {
		binds := u.Multiplicity < cfg.IssueWidth || u.IssueLatency != 1
		for _, cl := range u.Classes {
			classOff[cl] = off
			classLen[cl] = int32(u.Multiplicity)
			classIssueLat[cl] = int64(u.IssueLatency)
			classBinds[cl] = binds
		}
		off += int32(u.Multiplicity)
	}

	n := len(p.Instrs)
	if cap(dec) >= n+1 {
		dec = dec[:n+1]
	} else {
		dec = make([]decoded, n+1)
	}
	// The sentinel issues harmlessly (no operands, no memory, no unit) and
	// then errors from the semantic switch; the run is abandoned anyway.
	dec[n] = decoded{op: opOutOfRange, fop: opOutOfRange, unitLen: 1, issueLat: 1, lat: 1}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		info := in.Op.Info()
		cl := in.Op.Class()
		var f dflags
		if info.NSrc >= 1 && in.Src1 != isa.NoReg {
			f |= fSrc1
		}
		if info.NSrc >= 2 && in.Src2 != isa.NoReg {
			f |= fSrc2
		}
		if info.HasDst && in.Dst != isa.NoReg && in.Dst != isa.RZero {
			f |= fDst
		}
		// Unused source operands are remapped to r0 so the inner loop can
		// probe the scoreboard unconditionally: fDst never covers r0, so
		// ready[r0] is always zero and can never look busy. Instructions
		// without fSrc1/fSrc2 never read the operand semantically either.
		s1, s2 := in.Src1, in.Src2
		if f&fSrc1 == 0 {
			s1 = isa.RZero
		}
		if f&fSrc2 == 0 {
			s2 = isa.RZero
		}
		isPrint := in.Op == isa.OpPrinti || in.Op == isa.OpPrintf
		if info.Load {
			f |= fLoad
		}
		if info.Load || (info.Store && !isPrint) {
			f |= fMem
		}
		if classBinds[cl] {
			f |= fUnit
		}
		dec[i] = decoded{
			op:       in.Op,
			fop:      in.Op,
			class:    uint8(cl),
			flags:    f,
			dst:      in.Dst,
			src1:     s1,
			src2:     s2,
			unitOff:  classOff[cl],
			unitLen:  classLen[cl],
			target:   int32(in.Target),
			issueLat: classIssueLat[cl],
			lat:      int64(cfg.Latency[cl]),
			imm:      in.Imm,
			fimm:     in.FImm,
		}
	}

	// Fuse hot pairs. Only instructions whose units cannot bind qualify:
	// the fused cases inline both instructions' issue steps and elide the
	// lane scan for both. The second entry of a pair is left intact so
	// direct jumps to it still work. ALU+branch pairs are chosen first
	// (they also absorb the block-boundary epilogue); remaining adjacent
	// ALU pairs are then paired greedily without overlap.
	fused := make([]bool, n+1)
	for i := 0; i+1 < n; i++ {
		a, b := &dec[i], &dec[i+1]
		if fusibleALU(a.op) && a.flags&fDst != 0 && a.flags&fUnit == 0 &&
			condBranch(b.op) && b.flags&fUnit == 0 {
			a.fop = opFusedAluBr
			fused[i], fused[i+1] = true, true
		}
	}
	for i := 0; i+1 < n; i++ {
		if fused[i] || fused[i+1] {
			continue
		}
		a, b := &dec[i], &dec[i+1]
		if fusibleALU(a.op) && a.flags&fDst != 0 && a.flags&fUnit == 0 &&
			fusibleALU(b.op) && b.flags&fDst != 0 && b.flags&fUnit == 0 {
			a.fop = opFusedAluAlu
			fused[i], fused[i+1] = true, true
		}
	}
	return dec
}
