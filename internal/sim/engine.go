package sim

import (
	"context"
	"fmt"
	"math"

	"ilp/internal/cache"
	"ilp/internal/isa"
	"ilp/internal/machine"
)

// Engine is a reusable simulator instance. A fresh Engine is ready to use;
// Reset re-arms it for another program/machine pair while recycling every
// large allocation from the previous run: the memory image (zeroing only the
// data segment and the store high-water region actually dirtied), the
// predecoded instruction array, the functional-unit scoreboard, the block
// entry/exit counters, and the output buffer. The package-level Run draws
// Engines from a sync.Pool, so even callers that never see the type stop
// paying a 16 MB allocation and full zeroing per simulation.
//
// An Engine is not safe for concurrent use; use one per goroutine (or just
// call Run, which pools them). A predecoded Code, by contrast, is immutable
// and may be shared by any number of engines at once.
type Engine struct {
	cfg  *machine.Config
	prog *isa.Program
	opts Options

	// dec is the predecoded program the run executes: either the shared
	// immutable Options.Code array, or decBuf, the engine's own reusable
	// translation buffer. Engines never write through dec.
	dec    []decoded
	decBuf []decoded
	// scheds holds the superblock trace schedules the fast path may replay,
	// indexed by leader pc: the shared Code's, or the engine's own
	// (ownScheds) when running without one.
	scheds []*traceSched
	// ownProg/ownCfg/ownSchedFP/ownScheds cache the engine's own translation
	// (decBuf) and trace schedules keyed by (program, machine schedule), so
	// repeated Code-less runs of the same pair — the dominant pattern for a
	// pooled engine driving one benchmark — skip both the predecode sweep
	// and the static trace analysis at Reset. The config pointer is checked
	// first so a hit costs no fingerprint hash.
	ownProg    *isa.Program
	ownCfg     *machine.Config
	ownSchedFP string
	ownScheds  []*traceSched

	// enter and exit count, per instruction index, how many contiguous
	// execution runs began and ended there: enter[i] is bumped when
	// control arrives at i by a taken transfer (or at program entry),
	// exit[i] when a taken transfer or halt leaves from i. Untaken
	// branches keep the run going and touch neither. The dynamic
	// execution count of instruction i is then the running sum
	// Σ enter[0..i] − Σ exit[0..i-1], which fillResult folds into
	// per-class counts at run end — replacing the seed engine's
	// per-instruction counter store with two array bumps per *block*.
	enter, exit []int64
	// classCounts accumulates dynamic instruction counts per class, folded
	// from enter/exit at halt.
	classCounts [isa.NumClasses]int64
	// hookDec is a hooked run's own copy of dec, in which every instruction
	// dispatches through opHooked (see arm).
	hookDec []decoded

	// regs and ready are sized 256 (not isa.NumRegs) so that indexing by
	// a Reg (uint8) needs no bounds check in the inner loop.
	regs [256]int64
	mem  []int64
	// dataLen and dirtyLo/dirtyHi record which words of mem the current
	// run has made nonzero: the loaded data segment plus the range of
	// stores above it. The next Reset zeroes only those, not the whole
	// arena. A store into the data segment leaves dirtyLo alone: Reset
	// clears the segment anyway, and letting such a store pull dirtyLo
	// down to the bottom of memory would stretch the range over the empty
	// gap up to the stack at the top.
	dataLen          int
	dirtyLo, dirtyHi int

	// Timing state.
	ready        [256]int64 // minor cycle a register's value becomes available
	unitFree     []int64    // per unit copy (flat; decoded holds offsets): next free minor cycle
	cycle        int64      // current issue minor cycle
	inCycle      int        // instructions already issued this minor cycle
	barrier      int64      // earliest next issue after a group break
	barrierIsBr  bool       // the barrier came from a taken branch
	lastComplete int64

	icache *cache.Cache
	dcache *cache.Cache

	pc     int
	halted bool

	instrs int64
	groups int64
	// replays counts schedule replays taken this run (testing/diagnostics).
	replays int64
	// mispaths counts specialized-trace guard exits taken this run: a
	// profiled likely-taken branch went untaken mid-replay and the engine
	// fell back to the block interpreter at its fallthrough. Diagnostics
	// only — like replays, deliberately not part of Result, which must stay
	// bit-identical across engine paths.
	mispaths int64
	output   []isa.Value
	stalls   StallBreakdown

	// rec, when non-nil, records the run's control path (see Path): runFast
	// appends to it at control transfers and trace exits and publishes it
	// at polls. It is set for the duration of one RecordIntoCtx call and nil
	// on every other run.
	rec *Path
}

// NewEngine returns an empty engine. Buffers are grown on first Reset.
func NewEngine() *Engine { return &Engine{} }

// Mispaths returns the specialized-trace guard exits the last run took.
func (e *Engine) Mispaths() int64 { return e.mispaths }

// Reset validates the program and machine, predecodes the program (or adopts
// the shared predecode in opts.Code), and re-arms all run state, reusing the
// engine's buffers.
func (e *Engine) Reset(p *isa.Program, opts Options) error {
	memWords, stackTop, err := validate(p, opts)
	if err != nil {
		return err
	}
	e.resetMemory(memWords)
	copy(e.mem, p.Data)
	e.dataLen = len(p.Data)
	e.dirtyLo, e.dirtyHi = memWords, -1

	e.regs = [256]int64{}
	e.regs[isa.RSP] = stackTop
	return e.arm(p, opts)
}

// validate checks a run's program and options, returning the memory size
// and the initial stack pointer the run uses.
func validate(p *isa.Program, opts Options) (memWords int, stackTop int64, err error) {
	if opts.Machine == nil {
		return 0, 0, fmt.Errorf("sim: no machine description")
	}
	cfg := opts.Machine
	if err := cfg.Validate(); err != nil {
		return 0, 0, fmt.Errorf("sim: %w", err)
	}
	if err := p.Validate(); err != nil {
		return 0, 0, fmt.Errorf("sim: %w", err)
	}
	memWords = opts.MemWords
	if memWords == 0 {
		memWords = DefaultMemWords
	}
	if len(p.Data) > memWords {
		return 0, 0, fmt.Errorf("sim: data segment (%d words) exceeds memory (%d words)", len(p.Data), memWords)
	}
	stackTop = p.StackTop
	if stackTop == 0 {
		stackTop = int64(memWords)
	}
	if stackTop > int64(memWords) || stackTop <= int64(len(p.Data)) {
		return 0, 0, fmt.Errorf("sim: stack top %d outside memory", stackTop)
	}
	return memWords, stackTop, nil
}

// arm re-arms everything but the architectural state (memory and
// registers) for a validated run: the timing state, the caches, the
// predecoded program and the counters.
func (e *Engine) arm(p *isa.Program, opts Options) error {
	cfg := opts.Machine
	e.ready = [256]int64{}

	total := 0
	for _, u := range cfg.Units {
		total += u.Multiplicity
	}
	if cap(e.unitFree) >= total {
		e.unitFree = e.unitFree[:total]
		clear(e.unitFree)
	} else {
		e.unitFree = make([]int64, total)
	}

	e.icache, e.dcache = nil, nil
	var err error
	if cfg.ICache != nil {
		if e.icache, err = cache.New(*cfg.ICache); err != nil {
			return err
		}
	}
	if cfg.DCache != nil {
		if e.dcache, err = cache.New(*cfg.DCache); err != nil {
			return err
		}
	}

	e.cfg, e.prog, e.opts = cfg, p, opts
	if opts.Code != nil {
		if err := opts.Code.matches(p, cfg); err != nil {
			return err
		}
		e.dec = opts.Code.dec
		e.scheds = opts.Code.scheds
	} else if e.ownProg == p && (e.ownCfg == cfg || e.ownSchedFP == cfg.ScheduleFingerprint()) {
		// Engine-level translation cache hit: decBuf still holds this exact
		// (program, schedule) translation — the last Code-less Reset built
		// it, and Code-based Resets never touch decBuf.
		e.dec = e.decBuf
		e.scheds = e.ownScheds
	} else {
		e.decBuf = predecodeInto(e.decBuf, p, cfg)
		e.dec = e.decBuf
		e.ownScheds = buildScheds(p, cfg, e.decBuf, nil)
		e.ownProg, e.ownCfg, e.ownSchedFP = p, cfg, cfg.ScheduleFingerprint()
		e.scheds = e.ownScheds
	}

	n := len(e.dec) // real instructions + sentinel
	if cap(e.enter) >= n {
		e.enter = e.enter[:n]
		clear(e.enter)
	} else {
		e.enter = make([]int64, n)
	}
	if cap(e.exit) >= n {
		e.exit = e.exit[:n]
		clear(e.exit)
	} else {
		e.exit = make([]int64, n)
	}
	e.classCounts = [isa.NumClasses]int64{}
	if opts.OnIssue != nil || opts.OnTrace != nil {
		// A hooked run executes its own copy of the program, in which every
		// instruction but the sentinel dispatches through opHooked, and
		// replays no traces, so the hooks see each retired instruction in
		// program order and a fused pair as its two halves. The shared
		// dispatch of unhooked runs carries no hook test.
		e.hookDec = append(e.hookDec[:0], e.dec...)
		for i := range n - 1 {
			e.hookDec[i].fop = opHooked
		}
		e.dec, e.scheds = e.hookDec, nil
	}

	e.cycle, e.inCycle = 0, 0
	e.barrier, e.barrierIsBr = 0, false
	e.lastComplete = 0
	e.pc = p.Entry
	e.halted = false
	e.instrs, e.groups = 0, 0
	e.replays, e.mispaths = 0, 0
	e.output = e.output[:0]
	e.stalls = StallBreakdown{}
	// The program entry opens the first contiguous execution run. Counted
	// here (not at the top of the timing loop) so a run advanced in several
	// runFast slices — a caller resuming past a stopAt — counts it once.
	e.enter[p.Entry]++
	return nil
}

// resetMemory provides a zeroed memory image of memWords words, zeroing only
// the region the previous run made nonzero.
func (e *Engine) resetMemory(memWords int) {
	if cap(e.mem) >= memWords {
		all := e.mem[:cap(e.mem)]
		if e.dataLen > 0 {
			clear(all[:e.dataLen])
		}
		if e.dirtyHi >= e.dirtyLo {
			clear(all[e.dirtyLo : e.dirtyHi+1])
		}
		e.mem = all[:memWords]
		return
	}
	e.mem = make([]int64, memWords)
}

// Run simulates the program to completion on this engine and returns a
// freshly allocated result.
func (e *Engine) Run(p *isa.Program, opts Options) (*Result, error) {
	res := new(Result)
	if err := e.RunInto(p, opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is the zero-allocation variant of Run: it resets the engine, runs
// the program, and fills res in place (reusing res.Output's capacity).
func (e *Engine) RunInto(p *isa.Program, opts Options, res *Result) error {
	return e.RunIntoCtx(context.Background(), p, opts, res)
}

// RunIntoCtx is RunInto with cancellation: the timing loop polls ctx at
// control transfers, at least every cancelCheckInterval dynamic
// instructions, so a done context abandons the run (returning the context's
// cause) within a fraction of a millisecond at typical throughput. A
// Background context costs nothing on the fast path.
func (e *Engine) RunIntoCtx(ctx context.Context, p *isa.Program, opts Options, res *Result) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return ctxErr(ctx)
	}
	if err := e.Reset(p, opts); err != nil {
		return err
	}
	maxInstrs := opts.MaxInstructions
	if maxInstrs == 0 {
		maxInstrs = DefaultMaxInstructions
	}
	if err := e.runFast(ctx, maxInstrs, maxInstrs); err != nil {
		return err
	}
	e.fillResult(res, e.output)
	return nil
}

// nextCheck returns the instruction count at which the timing loop should
// next stop to poll the context (or, with no pollable context, to enforce
// the instruction limit only).
func nextCheck(done <-chan struct{}, instrs, maxInstrs int64) int64 {
	if done == nil {
		return maxInstrs
	}
	return min(instrs+cancelCheckInterval, maxInstrs)
}

// runFast is the engine's one executing loop: every run, caches and hooks
// included (the differential suite pins it, hooked and unhooked, to the
// reference engine). A machine with a cache replays no traces: each trace's
// timing was proven on the assumption that no fetch or access misses. A
// hooked run replays none either, and dispatches every instruction through
// opHooked on its own copy of the program (see arm), so the hooks cost an
// unhooked run nothing per instruction.
//
// Relative to the seed engine the loop works at basic-block granularity:
// dynamic instruction counts are two array bumps per contiguous execution
// run (enter/exit, folded to ClassCounts at halt) instead of a counter
// store per instruction, and the limit/cancellation compare sits at control
// transfers only — straight-line instructions run with no bookkeeping at
// all beyond `instrs++`. Any loop must execute a control transfer, so the
// instruction limit and context polls still fire; the one divergence is a
// straight-line program longer than the limit, which now completes rather
// than aborting mid-run. Hot ALU+branch pairs are fused into one
// superinstruction dispatch (see opFusedAluBr), and conflict-free
// functional units (multiplicity ≥ width, issue latency 1 — every unit of
// every ideal machine) are elided from the loop entirely at predecode.
//
// All hot state lives in locals for the duration of the loop and is written
// back once at the halt or yield exit; error exits abandon the run, so only
// dirty-memory tracking — updated on the engine at every store — must stay
// accurate there.
//
// With e.rec set (RecordIntoCtx), the loop also records the run's control
// path: a conditional branch's outcome or a jr's target at each control
// transfer, and the guard outcomes a trace exit implies — O(1) per exit,
// from the bits buildScheds precomputed, and a word at a time across a
// stable spin's iterations — and publishes it to following walks at each
// poll. Every recorder check sits at a control transfer, a trace exit or a
// poll, never on the straight-line path.
//
// stopAt makes the loop resumable: once instrs reaches it (checked at the
// same control-transfer points as the instruction limit), the loop writes
// all state back and returns with halted still false, and a later call picks
// up exactly where it left off. Whole runs pass stopAt == maxInstrs;
// ProfileRun passes its instruction budget, so a budgeted pre-run yields
// its state instead of failing at a limit.
func (e *Engine) runFast(ctx context.Context, maxInstrs, stopAt int64) error {
	width := int64(e.cfg.IssueWidth)
	takenEnds := e.cfg.TakenBranchEndsGroup
	redirect := int64(e.cfg.BranchRedirect)
	dec := e.dec
	unitFree := e.unitFree
	mem := e.mem
	memLen := int64(len(mem))
	regs := &e.regs
	ready := &e.ready
	enter, exit := e.enter, e.exit
	icache, dcache := e.icache, e.dcache
	scheds := e.scheds
	if icache != nil || dcache != nil {
		scheds = nil
	}
	rec := e.rec

	cycle, barrier := e.cycle, e.barrier
	inCycle := int64(e.inCycle)
	barrierIsBr := e.barrierIsBr
	lastComplete := e.lastComplete
	instrs, groups := e.instrs, e.groups
	stalls := e.stalls
	pc := e.pc

	// Cancellation polling shares the instruction-limit comparison the
	// loop performs at control transfers: checkAt is the next instruction
	// count at which anything needs attention — a context poll, the
	// instruction limit, or the caller's stop point.
	done := ctx.Done()
	checkAt := min(nextCheck(done, instrs, maxInstrs), stopAt)

	// skipCheck elides the trace-entry register scan across consecutive
	// iterations of a proven-stable loop trace (see the check label);
	// stableIdx is the exit that proved it.
	skipCheck := false
	stableIdx := 0

	for {
		idx := pc
		d := &dec[idx]
		next := idx + 1
		var taken bool

		// 1. Earliest slot under the in-order, width-limited discipline.
		// Stall accounting is written max-style rather than branching on
		// t > issue: the comparisons are data-dependent and mispredict
		// badly, while max compiles to a conditional move (adding zero to
		// the stall counter when there is no stall).
		var over int64
		if inCycle >= width {
			over = 1
		}
		slot := cycle + over
		stalls.Width += over
		if barrier > slot {
			if barrierIsBr {
				stalls.Branch += barrier - slot
			}
			slot = barrier
		}
		if icache != nil {
			slot = fetchMiss(icache, idx, slot, &stalls)
		}
		issue := slot

		// 2. Operand availability (RAW through the scoreboard). The probes
		// are unconditional: predecode remapped absent sources to r0, whose
		// ready slot is never written and so can never look busy. Both
		// probes fold into one max so the loads are independent of the
		// issue-slot computation above (the stall sum is unchanged:
		// (m1−issue) + (m2−m1) telescopes to max(r1,r2,issue) − issue).
		m := max(issue, max(ready[d.src1], ready[d.src2]))
		stalls.Data += m - issue
		issue = m

		// 3. Operation latency and the data-memory address. A load's
		// D-cache miss lengthens its latency here; a store's access waits
		// for its issue slot (the store case below).
		lat := d.lat
		var memAddr int64
		if d.flags&fMem != 0 {
			memAddr = regs[d.src1] + d.imm
			if memAddr < 0 || memAddr >= memLen {
				return fmt.Errorf("sim: pc %d (%s): address %d out of range", idx, &e.prog.Instrs[idx], memAddr)
			}
			if dcache != nil && d.flags&fLoad != 0 {
				lat += missPenalty(dcache, memAddr)
			}
		}

		// 4. Write-order (WAW).
		if d.flags&fDst != 0 {
			m = max(issue, ready[d.dst]-lat)
			stalls.Write += m - issue
			issue = m
		}

		// 5. Functional-unit availability (class conflicts). Predecode
		// clears fUnit for units that provably never bind, which removes
		// the scan and the booking store; for the rest, the lane min is
		// computed branch-free (conditional moves, no data-dependent
		// branches) before the booking.
		if d.flags&fUnit != 0 {
			best := int(d.unitOff)
			bv := unitFree[best]
			for i := best + 1; i < int(d.unitOff)+int(d.unitLen); i++ {
				if v := unitFree[i]; v < bv {
					bv, best = v, i
				}
			}
			m = max(issue, bv)
			stalls.Unit += m - issue
			issue = m
			unitFree[best] = issue + d.issueLat
		}

		// Commit the issue slot.
		if issue > cycle {
			cycle = issue
			inCycle = 1
			groups++
		} else {
			if inCycle == 0 {
				groups++ // very first issue slot
			}
			inCycle++
		}
		complete := issue + lat
		if d.flags&fDst != 0 {
			ready[d.dst] = complete
		}
		lastComplete = max(lastComplete, complete)

		// 6. Execute (program order, at issue), inlined to spare a function
		// call (and the spill of all the locals above) per dynamic
		// instruction. Control transfers leave through the boundary
		// epilogue below; straight-line ops fall out of the switch into the
		// two-instruction epilogue.
		op := d.fop
	dispatch:
		switch op {
		case isa.OpNop:
		case isa.OpAdd:
			e.setReg(d.dst, regs[d.src1]+regs[d.src2])
		case isa.OpAddi:
			e.setReg(d.dst, regs[d.src1]+d.imm)
		case isa.OpSub:
			e.setReg(d.dst, regs[d.src1]-regs[d.src2])
		case isa.OpMul:
			e.setReg(d.dst, regs[d.src1]*regs[d.src2])
		case isa.OpDiv:
			dv := regs[d.src2]
			if dv == 0 {
				return fmt.Errorf("sim: pc %d (%s): integer division by zero", idx, &e.prog.Instrs[idx])
			}
			e.setReg(d.dst, regs[d.src1]/dv)
		case isa.OpRem:
			dv := regs[d.src2]
			if dv == 0 {
				return fmt.Errorf("sim: pc %d (%s): integer remainder by zero", idx, &e.prog.Instrs[idx])
			}
			e.setReg(d.dst, regs[d.src1]%dv)
		case isa.OpSlt:
			e.setReg(d.dst, b2i(regs[d.src1] < regs[d.src2]))
		case isa.OpSle:
			e.setReg(d.dst, b2i(regs[d.src1] <= regs[d.src2]))
		case isa.OpSeq:
			e.setReg(d.dst, b2i(regs[d.src1] == regs[d.src2]))
		case isa.OpSne:
			e.setReg(d.dst, b2i(regs[d.src1] != regs[d.src2]))
		case isa.OpAnd:
			e.setReg(d.dst, regs[d.src1]&regs[d.src2])
		case isa.OpOr:
			e.setReg(d.dst, regs[d.src1]|regs[d.src2])
		case isa.OpXor:
			e.setReg(d.dst, regs[d.src1]^regs[d.src2])
		case isa.OpAndi:
			e.setReg(d.dst, regs[d.src1]&d.imm)
		case isa.OpOri:
			e.setReg(d.dst, regs[d.src1]|d.imm)
		case isa.OpXori:
			e.setReg(d.dst, regs[d.src1]^d.imm)
		case isa.OpSll:
			e.setReg(d.dst, regs[d.src1]<<(uint64(regs[d.src2])&63))
		case isa.OpSrl:
			e.setReg(d.dst, int64(uint64(regs[d.src1])>>(uint64(regs[d.src2])&63)))
		case isa.OpSra:
			e.setReg(d.dst, regs[d.src1]>>(uint64(regs[d.src2])&63))
		case isa.OpSlli:
			e.setReg(d.dst, regs[d.src1]<<(uint64(d.imm)&63))
		case isa.OpSrli:
			e.setReg(d.dst, int64(uint64(regs[d.src1])>>(uint64(d.imm)&63)))
		case isa.OpSrai:
			e.setReg(d.dst, regs[d.src1]>>(uint64(d.imm)&63))
		case isa.OpLi:
			e.setReg(d.dst, d.imm)
		case isa.OpMov:
			e.setReg(d.dst, regs[d.src1])
		case isa.OpFli:
			e.setRegF(d.dst, d.fimm)
		case isa.OpFmov:
			e.setReg(d.dst, regs[d.src1])
		case isa.OpLw, isa.OpLf:
			e.setReg(d.dst, mem[memAddr])
		case isa.OpSw, isa.OpSf:
			mem[memAddr] = regs[d.src2]
			if a := int(memAddr); a < e.dirtyLo && a >= e.dataLen {
				e.dirtyLo = a
			}
			if a := int(memAddr); a > e.dirtyHi {
				e.dirtyHi = a
			}
			if dcache != nil {
				barrier, barrierIsBr = storeMiss(missPenalty(dcache, memAddr), issue, barrier, barrierIsBr, &stalls)
			}
		case isa.OpBeq:
			if regs[d.src1] == regs[d.src2] {
				taken, next = true, int(d.target)
			}
			goto condBoundary
		case isa.OpBne:
			if regs[d.src1] != regs[d.src2] {
				taken, next = true, int(d.target)
			}
			goto condBoundary
		case isa.OpBlt:
			if regs[d.src1] < regs[d.src2] {
				taken, next = true, int(d.target)
			}
			goto condBoundary
		case isa.OpBge:
			if regs[d.src1] >= regs[d.src2] {
				taken, next = true, int(d.target)
			}
			goto condBoundary
		case isa.OpBle:
			if regs[d.src1] <= regs[d.src2] {
				taken, next = true, int(d.target)
			}
			goto condBoundary
		case isa.OpBgt:
			if regs[d.src1] > regs[d.src2] {
				taken, next = true, int(d.target)
			}
			goto condBoundary
		case isa.OpJ:
			taken, next = true, int(d.target)
			goto boundary
		case isa.OpJal:
			e.setReg(d.dst, int64(idx+1))
			taken, next = true, int(d.target)
			goto boundary
		case isa.OpJr:
			t := int(regs[d.src1])
			// The only computed control transfer: check here (the
			// sentinel covers t == len(dec)-1, i.e. one past the
			// program, with the same error).
			if uint(t) >= uint(len(dec)) {
				return fmt.Errorf("sim: pc %d out of range", t)
			}
			taken, next = true, t
			if rec != nil {
				rec.targets = append(rec.targets, int32(t))
			}
			goto boundary
		case opFusedAluBr:
			// A fused ALU+conditional-branch pair. The head (this
			// entry, architectural op d.op) has fully issued above;
			// apply its semantics, then inline the branch at idx+1
			// through the exact timing steps it would take standalone:
			// width limit, barrier, I-fetch, RAW — no destination, no
			// memory, and a conflict-free unit (fusion requires it).
			{
				var v int64
				switch d.op {
				case isa.OpAdd:
					v = regs[d.src1] + regs[d.src2]
				case isa.OpAddi:
					v = regs[d.src1] + d.imm
				case isa.OpSub:
					v = regs[d.src1] - regs[d.src2]
				case isa.OpAnd:
					v = regs[d.src1] & regs[d.src2]
				case isa.OpOr:
					v = regs[d.src1] | regs[d.src2]
				case isa.OpXor:
					v = regs[d.src1] ^ regs[d.src2]
				case isa.OpAndi:
					v = regs[d.src1] & d.imm
				case isa.OpOri:
					v = regs[d.src1] | d.imm
				case isa.OpXori:
					v = regs[d.src1] ^ d.imm
				case isa.OpSlt:
					v = b2i(regs[d.src1] < regs[d.src2])
				case isa.OpSle:
					v = b2i(regs[d.src1] <= regs[d.src2])
				case isa.OpSeq:
					v = b2i(regs[d.src1] == regs[d.src2])
				case isa.OpSne:
					v = b2i(regs[d.src1] != regs[d.src2])
				case isa.OpSll:
					v = regs[d.src1] << (uint64(regs[d.src2]) & 63)
				case isa.OpSrl:
					v = int64(uint64(regs[d.src1]) >> (uint64(regs[d.src2]) & 63))
				case isa.OpSra:
					v = regs[d.src1] >> (uint64(regs[d.src2]) & 63)
				case isa.OpSlli:
					v = regs[d.src1] << (uint64(d.imm) & 63)
				case isa.OpSrli:
					v = int64(uint64(regs[d.src1]) >> (uint64(d.imm) & 63))
				case isa.OpSrai:
					v = regs[d.src1] >> (uint64(d.imm) & 63)
				case isa.OpLi:
					v = d.imm
				case isa.OpMov:
					v = regs[d.src1]
				default:
					return fmt.Errorf("sim: pc %d: bad fused head opcode %v", idx, d.op)
				}
				regs[d.dst] = v // fusion requires fDst, so dst is never r0

				bd := &dec[idx+1]
				var overB int64
				if inCycle >= width {
					overB = 1
				}
				slotB := cycle + overB
				stalls.Width += overB
				if barrier > slotB {
					if barrierIsBr {
						stalls.Branch += barrier - slotB
					}
					slotB = barrier
				}
				if icache != nil {
					slotB = fetchMiss(icache, idx+1, slotB, &stalls)
				}
				issueB := slotB
				m = max(issueB, max(ready[bd.src1], ready[bd.src2]))
				stalls.Data += m - issueB
				issueB = m
				if issueB > cycle {
					cycle = issueB
					inCycle = 1
					groups++
				} else {
					inCycle++ // the head issued, so inCycle >= 1 here
				}
				lastComplete = max(lastComplete, issueB+bd.lat)

				var bTaken bool
				switch bd.op {
				case isa.OpBeq:
					bTaken = regs[bd.src1] == regs[bd.src2]
				case isa.OpBne:
					bTaken = regs[bd.src1] != regs[bd.src2]
				case isa.OpBlt:
					bTaken = regs[bd.src1] < regs[bd.src2]
				case isa.OpBge:
					bTaken = regs[bd.src1] >= regs[bd.src2]
				case isa.OpBle:
					bTaken = regs[bd.src1] <= regs[bd.src2]
				case isa.OpBgt:
					bTaken = regs[bd.src1] > regs[bd.src2]
				}
				instrs += 2
				if rec != nil {
					rec.appendBit(bTaken)
				}
				if bTaken {
					pc = int(bd.target)
					exit[idx+1]++
					enter[pc]++
					if takenEnds {
						if b := issueB + bd.lat + redirect; b > barrier {
							barrier, barrierIsBr = b, true
						}
					}
				} else {
					pc = idx + 2
				}
			}
			goto check
		case opFusedAluAlu:
			// A fused pair of integer ALU instructions: the head has
			// fully issued above; apply its semantics, then inline the
			// second ALU op at idx+1 through its standalone issue steps
			// (width limit, barrier, I-fetch, RAW, WAW, scoreboard write;
			// a conflict-free unit — fusion requires it). Straight-line,
			// so no block bookkeeping and no limit compare.
			{
				var v int64
				switch d.op {
				case isa.OpAdd:
					v = regs[d.src1] + regs[d.src2]
				case isa.OpAddi:
					v = regs[d.src1] + d.imm
				case isa.OpSub:
					v = regs[d.src1] - regs[d.src2]
				case isa.OpAnd:
					v = regs[d.src1] & regs[d.src2]
				case isa.OpOr:
					v = regs[d.src1] | regs[d.src2]
				case isa.OpXor:
					v = regs[d.src1] ^ regs[d.src2]
				case isa.OpAndi:
					v = regs[d.src1] & d.imm
				case isa.OpOri:
					v = regs[d.src1] | d.imm
				case isa.OpXori:
					v = regs[d.src1] ^ d.imm
				case isa.OpSlt:
					v = b2i(regs[d.src1] < regs[d.src2])
				case isa.OpSle:
					v = b2i(regs[d.src1] <= regs[d.src2])
				case isa.OpSeq:
					v = b2i(regs[d.src1] == regs[d.src2])
				case isa.OpSne:
					v = b2i(regs[d.src1] != regs[d.src2])
				case isa.OpSll:
					v = regs[d.src1] << (uint64(regs[d.src2]) & 63)
				case isa.OpSrl:
					v = int64(uint64(regs[d.src1]) >> (uint64(regs[d.src2]) & 63))
				case isa.OpSra:
					v = regs[d.src1] >> (uint64(regs[d.src2]) & 63)
				case isa.OpSlli:
					v = regs[d.src1] << (uint64(d.imm) & 63)
				case isa.OpSrli:
					v = int64(uint64(regs[d.src1]) >> (uint64(d.imm) & 63))
				case isa.OpSrai:
					v = regs[d.src1] >> (uint64(d.imm) & 63)
				case isa.OpLi:
					v = d.imm
				case isa.OpMov:
					v = regs[d.src1]
				default:
					return fmt.Errorf("sim: pc %d: bad fused head opcode %v", idx, d.op)
				}
				regs[d.dst] = v // fusion requires fDst, so dst is never r0

				bd := &dec[idx+1]
				var overB int64
				if inCycle >= width {
					overB = 1
				}
				slotB := cycle + overB
				stalls.Width += overB
				if barrier > slotB {
					if barrierIsBr {
						stalls.Branch += barrier - slotB
					}
					slotB = barrier
				}
				if icache != nil {
					slotB = fetchMiss(icache, idx+1, slotB, &stalls)
				}
				issueB := slotB
				m = max(issueB, max(ready[bd.src1], ready[bd.src2]))
				stalls.Data += m - issueB
				issueB = m
				latB := bd.lat
				m = max(issueB, ready[bd.dst]-latB)
				stalls.Write += m - issueB
				issueB = m
				if issueB > cycle {
					cycle = issueB
					inCycle = 1
					groups++
				} else {
					inCycle++ // the head issued, so inCycle >= 1 here
				}
				completeB := issueB + latB
				ready[bd.dst] = completeB
				lastComplete = max(lastComplete, completeB)

				switch bd.op {
				case isa.OpAdd:
					v = regs[bd.src1] + regs[bd.src2]
				case isa.OpAddi:
					v = regs[bd.src1] + bd.imm
				case isa.OpSub:
					v = regs[bd.src1] - regs[bd.src2]
				case isa.OpAnd:
					v = regs[bd.src1] & regs[bd.src2]
				case isa.OpOr:
					v = regs[bd.src1] | regs[bd.src2]
				case isa.OpXor:
					v = regs[bd.src1] ^ regs[bd.src2]
				case isa.OpAndi:
					v = regs[bd.src1] & bd.imm
				case isa.OpOri:
					v = regs[bd.src1] | bd.imm
				case isa.OpXori:
					v = regs[bd.src1] ^ bd.imm
				case isa.OpSlt:
					v = b2i(regs[bd.src1] < regs[bd.src2])
				case isa.OpSle:
					v = b2i(regs[bd.src1] <= regs[bd.src2])
				case isa.OpSeq:
					v = b2i(regs[bd.src1] == regs[bd.src2])
				case isa.OpSne:
					v = b2i(regs[bd.src1] != regs[bd.src2])
				case isa.OpSll:
					v = regs[bd.src1] << (uint64(regs[bd.src2]) & 63)
				case isa.OpSrl:
					v = int64(uint64(regs[bd.src1]) >> (uint64(regs[bd.src2]) & 63))
				case isa.OpSra:
					v = regs[bd.src1] >> (uint64(regs[bd.src2]) & 63)
				case isa.OpSlli:
					v = regs[bd.src1] << (uint64(bd.imm) & 63)
				case isa.OpSrli:
					v = int64(uint64(regs[bd.src1]) >> (uint64(bd.imm) & 63))
				case isa.OpSrai:
					v = regs[bd.src1] >> (uint64(bd.imm) & 63)
				case isa.OpLi:
					v = bd.imm
				case isa.OpMov:
					v = regs[bd.src1]
				default:
					return fmt.Errorf("sim: pc %d: bad fused tail opcode %v", idx+1, bd.op)
				}
				regs[bd.dst] = v
			}
			pc = idx + 2
			instrs += 2
			continue
		case isa.OpFadd:
			e.setRegF(d.dst, e.regF(d.src1)+e.regF(d.src2))
		case isa.OpFsub:
			e.setRegF(d.dst, e.regF(d.src1)-e.regF(d.src2))
		case isa.OpFneg:
			e.setRegF(d.dst, -e.regF(d.src1))
		case isa.OpFabs:
			e.setRegF(d.dst, math.Abs(e.regF(d.src1)))
		case isa.OpFmul:
			e.setRegF(d.dst, e.regF(d.src1)*e.regF(d.src2))
		case isa.OpFdiv:
			e.setRegF(d.dst, e.regF(d.src1)/e.regF(d.src2))
		case isa.OpCvtif:
			e.setRegF(d.dst, float64(regs[d.src1]))
		case isa.OpCvtfi:
			f := e.regF(d.src1)
			if math.IsNaN(f) || f >= 9.3e18 || f <= -9.3e18 {
				return fmt.Errorf("sim: pc %d (%s): float-to-int overflow (%g)", idx, &e.prog.Instrs[idx], f)
			}
			e.setReg(d.dst, int64(f))
		case isa.OpFslt:
			e.setReg(d.dst, b2i(e.regF(d.src1) < e.regF(d.src2)))
		case isa.OpFsle:
			e.setReg(d.dst, b2i(e.regF(d.src1) <= e.regF(d.src2)))
		case isa.OpFseq:
			e.setReg(d.dst, b2i(e.regF(d.src1) == e.regF(d.src2)))
		case isa.OpFsne:
			e.setReg(d.dst, b2i(e.regF(d.src1) != e.regF(d.src2)))
		case isa.OpFsqrt:
			e.setRegF(d.dst, math.Sqrt(e.regF(d.src1)))
		case isa.OpFsin:
			e.setRegF(d.dst, math.Sin(e.regF(d.src1)))
		case isa.OpFcos:
			e.setRegF(d.dst, math.Cos(e.regF(d.src1)))
		case isa.OpFatn:
			e.setRegF(d.dst, math.Atan(e.regF(d.src1)))
		case isa.OpFexp:
			e.setRegF(d.dst, math.Exp(e.regF(d.src1)))
		case isa.OpFlog:
			e.setRegF(d.dst, math.Log(e.regF(d.src1)))
		case isa.OpPrinti:
			e.output = append(e.output, isa.IntValue(regs[d.src1]))
		case isa.OpPrintf:
			e.output = append(e.output, isa.FloatValue(e.regF(d.src1)))
		case isa.OpHalt:
			instrs++
			exit[idx]++
			e.halted = true
			pc = idx
			goto out
		case opHooked:
			// A hooked run's instruction (see arm): report it, then
			// execute it under its architectural opcode.
			e.hook(idx, d, issue, complete, memAddr)
			op = d.op
			goto dispatch
		case opOutOfRange:
			return fmt.Errorf("sim: pc %d out of range", idx)
		default:
			return fmt.Errorf("sim: pc %d: unimplemented opcode %v", idx, d.op)
		}
		// Straight-line epilogue: no block bookkeeping, no limit compare.
		pc = next
		instrs++
		continue

	condBoundary:
		// A conditional branch: record its outcome.
		if rec != nil {
			rec.appendBit(taken)
		}

	boundary:
		// Control-transfer epilogue: a taken transfer ends the current
		// contiguous run at idx and starts one at the target; an untaken
		// branch keeps the run going (no counter writes) but still rides
		// through the limit/cancellation poll below, bounding the poll
		// interval in branch-dense code.
		pc = next
		instrs++
		if taken {
			exit[idx]++
			enter[next]++
			if takenEnds {
				// A taken branch ends its issue group, and the target
				// may not issue until the branch's operation latency
				// has elapsed — one base cycle on the ideal machines,
				// so a degree-m superpipeline pays m minor cycles: the
				// §4.1 startup transient at every branch target.
				if b := issue + lat + redirect; b > barrier {
					barrier, barrierIsBr = b, true
				}
			}
		}

	check:
		// Trace replay: if the instruction at pc roots a superblock trace,
		// and we arrived behind a fresh taken-branch barrier (so the trace's
		// first instruction issues exactly at the barrier), and no register
		// the trace touches is still in flight past the barrier, then the
		// whole trace's timing is known per exit: apply the semantics
		// segment by segment (traceExec, resolving each guarded side exit
		// from live data) and the issue accounting of whichever exit the run
		// took in O(1), instead of walking the scoreboard per instruction.
		// The entry stalls (width, branch) are dynamic and charged exactly
		// as the per-instruction path would; the trace's internal stalls —
		// including waits on its own jump-seam barriers — were precomputed.
		// A taken exit leaves a fresh barrier behind (the exiting branch
		// ends its group), so the loop spins: a hot loop body replays
		// iteration after iteration with at most one precondition scan
		// each — none when nothing completes past the barrier
		// (lastComplete ≤ barrier bounds every register), and none when
		// the exit is a proven-stable back-edge (skipCheck).
		for scheds != nil && barrierIsBr && barrier > cycle {
			tr := scheds[pc]
			if tr == nil {
				break
			}
			var exitIdx int
			var err error
			if skipCheck {
				// Proven-stable back-edge spin: every iteration re-enters
				// at pc with the precondition re-established and leaves
				// through the same exit with identical relative timing, so
				// each iteration's bookkeeping is a constant delta — run
				// the micro-ops k times, then apply k deltas in O(1). The
				// scoreboard writes, lastComplete, and block counters of
				// iterations 1..k-1 are superseded by (or fold into)
				// iteration k's, so only the final state is written.
				skipCheck = false
				sEx := &tr.exits[stableIdx]
				var overS int64
				if sEx.inCycle >= width {
					overS = 1
				}
				// Iterations until the poll point; ≥ 1 because the poll
				// below ran right after the exit that set skipCheck.
				kMax := (checkAt - instrs + sEx.n - 1) / sEx.n
				var k int64
				for {
					exitIdx, err = e.traceExecU(tr.uops)
					if err != nil || exitIdx != stableIdx {
						break
					}
					k++
					if k >= kMax {
						exitIdx = -1 // nothing pending; poll, then respin
						break
					}
				}
				if k > 0 {
					adv := k * sEx.barrierOff
					cycle += adv
					barrier += adv
					stalls.Width += k * (overS + sEx.widthStalls)
					stalls.Branch += k * (sEx.barrierOff - sEx.cycleAdv - overS + sEx.branchStalls)
					stalls.Data += k * sEx.dataStalls
					stalls.Write += k * sEx.writeStalls
					groups += k * sEx.groups
					instrs += k * sEx.n
					e.replays += k
					if rec != nil {
						rec.appendRepeat(sEx.pathBits, sEx.pathLen, k)
					}
					sLast := barrier - sEx.barrierOff
					for _, w := range sEx.writes {
						ready[w.Reg] = sLast + w.Off
					}
					lastComplete = max(lastComplete, sLast+sEx.maxComplete)
					if sEx.taken {
						exit[sEx.at] += k
						enter[pc] += k
					}
					for _, j := range sEx.jumps {
						exit[j.at] += k
						enter[j.target] += k
					}
				}
				if err != nil {
					return err
				}
				if exitIdx < 0 {
					skipCheck = true
					if instrs >= checkAt {
						if rec != nil {
							rec.publish()
						}
						if instrs >= maxInstrs {
							return fmt.Errorf("sim: instruction limit %d exceeded (infinite loop?)", maxInstrs)
						}
						if instrs >= stopAt {
							goto out
						}
						select {
						case <-done:
							return ctxErr(ctx)
						default:
						}
						checkAt = min(nextCheck(done, instrs, maxInstrs), stopAt)
					}
					continue
				}
				// A different exit fired: its semantics ran above; fall
				// through to apply its timing at the current barrier.
			} else {
				// Every ready[r] is at most lastComplete (each write to
				// ready raises lastComplete at least as far), so unless
				// something completes past the barrier no register the
				// trace touches can still be in flight: the scan would
				// pass, and is skipped.
				ok := true
				if lastComplete > barrier {
					for _, r := range tr.checkRegs {
						if ready[r] > barrier {
							ok = false
							break
						}
					}
				}
				if !ok {
					break
				}
				exitIdx, err = e.traceExecU(tr.uops)
				if err != nil {
					return err
				}
			}
			e.replays++
			s := barrier
			var over int64
			if inCycle >= width {
				over = 1
			}
			ex := &tr.exits[exitIdx]
			if rec != nil {
				rec.appendBits(ex.pathBits, ex.pathLen)
			}
			stalls.Width += over + ex.widthStalls
			stalls.Branch += s - (cycle + over) + ex.branchStalls
			stalls.Data += ex.dataStalls
			stalls.Write += ex.writeStalls
			cycle = s + ex.cycleAdv
			inCycle = ex.inCycle
			groups += ex.groups
			for _, w := range ex.writes {
				ready[w.Reg] = s + w.Off
			}
			lastComplete = max(lastComplete, s+ex.maxComplete)
			instrs += ex.n
			barrier = s + ex.barrierOff
			pc = int(ex.target)
			for _, j := range ex.jumps {
				exit[j.at]++
				enter[j.target]++
			}
			if ex.taken {
				exit[ex.at]++
				enter[pc]++
			} else if ex.at >= 0 {
				// A specialization guard fired: the profiled likely-taken
				// branch went untaken, and the engine resumes per-instruction
				// at its fallthrough. Untaken branches bump no block counter.
				e.mispaths++
			}
			if ex.stable {
				// A self-renewing back-edge — the taken side exit of a
				// do-while body, or the stitched-seam fallthrough of a
				// while-shaped loop: re-entry needs no register check.
				skipCheck = true
				stableIdx = exitIdx
			}
			if instrs >= checkAt {
				if rec != nil {
					rec.publish()
				}
				if instrs >= maxInstrs {
					return fmt.Errorf("sim: instruction limit %d exceeded (infinite loop?)", maxInstrs)
				}
				if instrs >= stopAt {
					goto out
				}
				select {
				case <-done:
					return ctxErr(ctx)
				default:
				}
				checkAt = min(nextCheck(done, instrs, maxInstrs), stopAt)
			}
		}
		skipCheck = false
		if instrs >= checkAt {
			if rec != nil {
				rec.publish()
			}
			if instrs >= maxInstrs {
				return fmt.Errorf("sim: instruction limit %d exceeded (infinite loop?)", maxInstrs)
			}
			if instrs >= stopAt {
				goto out
			}
			select {
			case <-done:
				return ctxErr(ctx)
			default:
			}
			checkAt = min(nextCheck(done, instrs, maxInstrs), stopAt)
		}
	}

out:
	// Halt or yield: write every local back so the result (or the next
	// runFast slice) sees the exact state.
	e.pc = pc
	e.cycle, e.barrier = cycle, barrier
	e.inCycle = int(inCycle)
	e.barrierIsBr = barrierIsBr
	e.lastComplete = lastComplete
	e.instrs, e.groups = instrs, groups
	e.stalls = stalls
	if e.halted {
		e.foldCounts()
	}
	return nil
}

// foldCounts folds the block entry/exit counters into per-class dynamic
// instruction counts: sweeping the program in index order, the number of
// still-open contiguous runs covering instruction i is exactly its dynamic
// execution count.
func (e *Engine) foldCounts() {
	dec, enter, exit := e.dec, e.enter, e.exit
	var live int64
	for i := 0; i < len(dec)-1; i++ { // skip the sentinel
		live += enter[i]
		e.classCounts[dec[i].class] += live
		live -= exit[i]
	}
}

// hook reports the instruction at idx, issued at issue and complete at
// complete, to the run's OnIssue and OnTrace hooks; memAddr is its data
// address if it accesses memory.
func (e *Engine) hook(idx int, d *decoded, issue, complete, memAddr int64) {
	in := &e.prog.Instrs[idx]
	if f := e.opts.OnIssue; f != nil {
		f(idx, in, issue, complete)
	}
	if f := e.opts.OnTrace; f != nil {
		if d.flags&fMem == 0 {
			memAddr = -1
		}
		f(idx, in, memAddr)
	}
}

// The cache timing rules of runFast, the only path that models caches. Each
// inlines into its callers.

// missPenalty accesses addr in c and returns the miss penalty in minor
// cycles, or 0 on a hit. A load adds it to its operation latency.
func missPenalty(c *cache.Cache, addr int64) int64 {
	if c.Access(addr) {
		return 0
	}
	return int64(c.MissPenalty())
}

// fetchMiss fetches the instruction at pc through the I-cache after the
// width and barrier steps have chosen its slot: a miss delays the slot by
// the penalty, booked as an ICache stall.
func fetchMiss(ic *cache.Cache, pc int, slot int64, stalls *StallBreakdown) int64 {
	pen := missPenalty(ic, int64(pc))
	stalls.ICache += pen
	return slot + pen
}

// storeMiss charges the D-cache penalty pen (missPenalty's result) of a
// store issued at issue. A miss is a DCache stall of pen minor cycles, and
// nothing may issue before issue+pen: it returns the barrier raised that
// far, as a non-branch barrier, or the barrier unchanged.
func storeMiss(pen, issue, barrier int64, barrierIsBr bool, stalls *StallBreakdown) (int64, bool) {
	if pen > 0 {
		stalls.DCache += pen
		if b := issue + pen; b > barrier {
			return b, false
		}
	}
	return barrier, barrierIsBr
}

// setReg writes an integer-file result, honoring the hardwired zero.
func (e *Engine) setReg(reg isa.Reg, v int64) {
	if reg != isa.RZero {
		e.regs[reg] = v
	}
}

// setRegF writes a floating-point result (fp registers cannot alias r0).
func (e *Engine) setRegF(reg isa.Reg, v float64) {
	e.regs[reg] = int64(math.Float64bits(v))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// regF reads a register as a float64.
func (e *Engine) regF(reg isa.Reg) float64 {
	return math.Float64frombits(uint64(e.regs[reg]))
}

// fillResult writes the run's result, with output as what the program
// printed, into res, reusing res.Output.
func (e *Engine) fillResult(res *Result, output []isa.Value) {
	res.Machine = e.cfg.Name
	res.Instructions = e.instrs
	res.IssueGroups = e.groups
	res.MinorCycles = e.lastComplete
	res.BaseCycles = e.cfg.BaseCycles(e.lastComplete)
	res.ClassCounts = e.classCounts
	res.Output = append(res.Output[:0], output...)
	res.Stalls = e.stalls
	res.InstrCounts, res.TakenExits = nil, nil
	if e.opts.CountInstrs {
		// Fold the block entry/exit counters, exactly as foldCounts does
		// for the class mix. exit already counts both taken transfers and
		// the final halt.
		n := len(e.dec) - 1
		counts := make([]int64, n)
		exits := make([]int64, n)
		var live int64
		for i := 0; i < n; i++ {
			live += e.enter[i]
			counts[i] = live
			live -= e.exit[i]
		}
		copy(exits, e.exit[:n])
		res.InstrCounts, res.TakenExits = counts, exits
	}
	res.ICacheStats, res.DCacheStats = nil, nil
	if e.icache != nil {
		st := e.icache.Stats()
		res.ICacheStats = &st
	}
	if e.dcache != nil {
		st := e.dcache.Stats()
		res.DCacheStats = &st
	}
}
