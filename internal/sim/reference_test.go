package sim

// This file preserves the original (pre-predecode) engine verbatim as a
// reference implementation. It is compiled only into tests and exists so the
// differential suite (differential_test.go) can prove that the rewritten
// engine, hooked and unhooked, is bit-identical to the original semantics
// and timing on every golden benchmark × machine configuration. Apart from
// renames (engine→refEngine, Run→refRun) and the removal of the public
// wrappers, the code is unchanged from the seed.

import (
	"fmt"
	"math"

	"ilp/internal/cache"
	"ilp/internal/isa"
	"ilp/internal/machine"
)

// refRun simulates the program to completion with the reference engine.
func refRun(p *isa.Program, opts Options) (*Result, error) {
	if opts.Machine == nil {
		return nil, fmt.Errorf("sim: no machine description")
	}
	cfg := opts.Machine
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	e, err := newRefEngine(p, cfg, opts)
	if err != nil {
		return nil, err
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.result(), nil
}

type refEngine struct {
	cfg  *machine.Config
	prog *isa.Program
	opts Options

	regs [isa.NumRegs]int64
	mem  []int64

	// Timing state.
	ready        [isa.NumRegs]int64 // minor cycle a register's value becomes available
	unitFree     [][]int64          // per unit, per copy: next minor cycle it can accept
	classUnit    [isa.NumClasses]int
	classLatency [isa.NumClasses]int
	cycle        int64 // current issue minor cycle
	inCycle      int   // instructions already issued this minor cycle
	barrier      int64 // earliest next issue after a group break
	barrierIsBr  bool  // the barrier came from a taken branch
	lastComplete int64

	icache *cache.Cache
	dcache *cache.Cache

	pc     int
	halted bool

	instrs      int64
	groups      int64
	classCounts [isa.NumClasses]int64
	output      []isa.Value
	stalls      StallBreakdown
}

func newRefEngine(p *isa.Program, cfg *machine.Config, opts Options) (*refEngine, error) {
	e := &refEngine{cfg: cfg, prog: p, opts: opts, pc: p.Entry}
	memWords := opts.MemWords
	if memWords == 0 {
		memWords = DefaultMemWords
	}
	if len(p.Data) > memWords {
		return nil, fmt.Errorf("sim: data segment (%d words) exceeds memory (%d words)", len(p.Data), memWords)
	}
	e.mem = make([]int64, memWords)
	copy(e.mem, p.Data)

	stackTop := p.StackTop
	if stackTop == 0 {
		stackTop = int64(memWords)
	}
	if stackTop > int64(memWords) || stackTop <= int64(len(p.Data)) {
		return nil, fmt.Errorf("sim: stack top %d outside memory", stackTop)
	}
	e.regs[isa.RSP] = stackTop

	e.unitFree = make([][]int64, len(cfg.Units))
	for i, u := range cfg.Units {
		e.unitFree[i] = make([]int64, u.Multiplicity)
		for _, cl := range u.Classes {
			e.classUnit[cl] = i
		}
	}
	for cl := 0; cl < isa.NumClasses; cl++ {
		e.classLatency[cl] = cfg.Latency[cl]
	}
	var err error
	if cfg.ICache != nil {
		if e.icache, err = cache.New(*cfg.ICache); err != nil {
			return nil, err
		}
	}
	if cfg.DCache != nil {
		if e.dcache, err = cache.New(*cfg.DCache); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *refEngine) run() error {
	maxInstrs := e.opts.MaxInstructions
	if maxInstrs == 0 {
		maxInstrs = DefaultMaxInstructions
	}
	width := int64(e.cfg.IssueWidth)
	for !e.halted {
		if e.pc < 0 || e.pc >= len(e.prog.Instrs) {
			return fmt.Errorf("sim: pc %d out of range", e.pc)
		}
		if e.instrs >= maxInstrs {
			return fmt.Errorf("sim: instruction limit %d exceeded (infinite loop?)", maxInstrs)
		}
		idx := e.pc
		in := &e.prog.Instrs[idx]
		info := in.Op.Info()

		// 1. Earliest slot under the in-order, width-limited discipline.
		slot := e.cycle
		if int64(e.inCycle) >= width {
			slot = e.cycle + 1
			e.stalls.Width++
		}
		if e.barrier > slot {
			if e.barrierIsBr {
				e.stalls.Branch += e.barrier - slot
			}
			slot = e.barrier
		}

		// 2. Instruction fetch.
		if e.icache != nil {
			if !e.icache.Access(int64(idx)) {
				pen := int64(e.icache.MissPenalty())
				e.stalls.ICache += pen
				slot += pen
			}
		}

		issue := slot

		// 3. Operand availability (RAW through the scoreboard).
		if info.NSrc >= 1 && in.Src1 != isa.NoReg {
			if t := e.ready[in.Src1]; t > issue {
				e.stalls.Data += t - issue
				issue = t
			}
		}
		if info.NSrc >= 2 && in.Src2 != isa.NoReg {
			if t := e.ready[in.Src2]; t > issue {
				e.stalls.Data += t - issue
				issue = t
			}
		}

		// 4. Operation latency, including data-cache effects on loads.
		lat := int64(e.classLatency[in.Op.Class()])
		var memAddr int64
		if info.Load || (info.Store && in.Op != isa.OpPrinti && in.Op != isa.OpPrintf) {
			base := e.regs[in.Src1]
			memAddr = base + in.Imm
			if memAddr < 0 || memAddr >= int64(len(e.mem)) {
				return fmt.Errorf("sim: pc %d (%s): address %d out of range", idx, in, memAddr)
			}
		}
		var storeMissPenalty int64
		if e.dcache != nil && (info.Load || info.Store) {
			addr := memAddr
			if in.Op == isa.OpPrinti || in.Op == isa.OpPrintf {
				addr = 0 // output port; treat as uncached hit
			} else if !e.dcache.Access(addr) {
				pen := int64(e.dcache.MissPenalty())
				if info.Load {
					lat += pen
				} else {
					storeMissPenalty = pen
				}
			}
		}

		// 5. Write-order (WAW): a result may not become available before
		// a previously issued write to the same register.
		if info.HasDst && in.Dst != isa.NoReg && in.Dst != isa.RZero {
			if t := e.ready[in.Dst] - lat; t > issue {
				e.stalls.Write += t - issue
				issue = t
			}
		}

		// 6. Functional-unit availability (class conflicts).
		u := e.classUnit[in.Op.Class()]
		copies := e.unitFree[u]
		best := 0
		for i := 1; i < len(copies); i++ {
			if copies[i] < copies[best] {
				best = i
			}
		}
		if t := copies[best]; t > issue {
			e.stalls.Unit += t - issue
			issue = t
		}

		// Commit the issue slot.
		if issue > e.cycle {
			e.cycle = issue
			e.inCycle = 1
			e.groups++
		} else {
			if e.inCycle == 0 {
				e.groups++ // very first issue slot
			}
			e.inCycle++
		}
		copies[best] = issue + int64(e.cfg.Units[u].IssueLatency)
		complete := issue + lat
		if info.HasDst && in.Dst != isa.NoReg && in.Dst != isa.RZero {
			e.ready[in.Dst] = complete
		}
		if complete > e.lastComplete {
			e.lastComplete = complete
		}
		if storeMissPenalty > 0 {
			e.stalls.DCache += storeMissPenalty
			if b := issue + storeMissPenalty; b > e.barrier {
				e.barrier = b
				e.barrierIsBr = false
			}
		}

		// 7. Execute (program order, at issue).
		taken, err := e.exec(idx, in, memAddr)
		if err != nil {
			return err
		}
		e.instrs++
		e.classCounts[in.Op.Class()]++
		if e.opts.OnIssue != nil {
			e.opts.OnIssue(idx, in, issue, complete)
		}
		if e.opts.OnTrace != nil {
			a := int64(-1)
			if info.Load || (info.Store && in.Op != isa.OpPrinti && in.Op != isa.OpPrintf) {
				a = memAddr
			}
			e.opts.OnTrace(idx, in, a)
		}
		if taken && e.cfg.TakenBranchEndsGroup {
			if b := issue + lat + int64(e.cfg.BranchRedirect); b > e.barrier {
				e.barrier = b
				e.barrierIsBr = true
			}
		}
	}
	return nil
}

// exec performs the semantic effect of the instruction and advances the pc.
// It reports whether a control transfer was taken.
func (e *refEngine) exec(idx int, in *isa.Instr, memAddr int64) (taken bool, err error) {
	r := func(reg isa.Reg) int64 { return e.regs[reg] }
	rf := func(reg isa.Reg) float64 { return math.Float64frombits(uint64(e.regs[reg])) }
	w := func(reg isa.Reg, v int64) {
		if reg != isa.RZero {
			e.regs[reg] = v
		}
	}
	wf := func(reg isa.Reg, v float64) { e.regs[reg] = int64(math.Float64bits(v)) }
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	next := idx + 1

	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		w(in.Dst, r(in.Src1)+r(in.Src2))
	case isa.OpAddi:
		w(in.Dst, r(in.Src1)+in.Imm)
	case isa.OpSub:
		w(in.Dst, r(in.Src1)-r(in.Src2))
	case isa.OpMul:
		w(in.Dst, r(in.Src1)*r(in.Src2))
	case isa.OpDiv:
		d := r(in.Src2)
		if d == 0 {
			return false, fmt.Errorf("sim: pc %d (%s): integer division by zero", idx, in)
		}
		w(in.Dst, r(in.Src1)/d)
	case isa.OpRem:
		d := r(in.Src2)
		if d == 0 {
			return false, fmt.Errorf("sim: pc %d (%s): integer remainder by zero", idx, in)
		}
		w(in.Dst, r(in.Src1)%d)
	case isa.OpSlt:
		w(in.Dst, b2i(r(in.Src1) < r(in.Src2)))
	case isa.OpSle:
		w(in.Dst, b2i(r(in.Src1) <= r(in.Src2)))
	case isa.OpSeq:
		w(in.Dst, b2i(r(in.Src1) == r(in.Src2)))
	case isa.OpSne:
		w(in.Dst, b2i(r(in.Src1) != r(in.Src2)))
	case isa.OpAnd:
		w(in.Dst, r(in.Src1)&r(in.Src2))
	case isa.OpOr:
		w(in.Dst, r(in.Src1)|r(in.Src2))
	case isa.OpXor:
		w(in.Dst, r(in.Src1)^r(in.Src2))
	case isa.OpAndi:
		w(in.Dst, r(in.Src1)&in.Imm)
	case isa.OpOri:
		w(in.Dst, r(in.Src1)|in.Imm)
	case isa.OpXori:
		w(in.Dst, r(in.Src1)^in.Imm)
	case isa.OpSll:
		w(in.Dst, r(in.Src1)<<(uint64(r(in.Src2))&63))
	case isa.OpSrl:
		w(in.Dst, int64(uint64(r(in.Src1))>>(uint64(r(in.Src2))&63)))
	case isa.OpSra:
		w(in.Dst, r(in.Src1)>>(uint64(r(in.Src2))&63))
	case isa.OpSlli:
		w(in.Dst, r(in.Src1)<<(uint64(in.Imm)&63))
	case isa.OpSrli:
		w(in.Dst, int64(uint64(r(in.Src1))>>(uint64(in.Imm)&63)))
	case isa.OpSrai:
		w(in.Dst, r(in.Src1)>>(uint64(in.Imm)&63))
	case isa.OpLi:
		w(in.Dst, in.Imm)
	case isa.OpMov:
		w(in.Dst, r(in.Src1))
	case isa.OpFli:
		wf(in.Dst, in.FImm)
	case isa.OpFmov:
		w(in.Dst, r(in.Src1))
	case isa.OpLw, isa.OpLf:
		w(in.Dst, e.mem[memAddr])
	case isa.OpSw, isa.OpSf:
		e.mem[memAddr] = r(in.Src2)
	case isa.OpBeq:
		taken = r(in.Src1) == r(in.Src2)
	case isa.OpBne:
		taken = r(in.Src1) != r(in.Src2)
	case isa.OpBlt:
		taken = r(in.Src1) < r(in.Src2)
	case isa.OpBge:
		taken = r(in.Src1) >= r(in.Src2)
	case isa.OpBle:
		taken = r(in.Src1) <= r(in.Src2)
	case isa.OpBgt:
		taken = r(in.Src1) > r(in.Src2)
	case isa.OpJ:
		taken = true
	case isa.OpJal:
		w(in.Dst, int64(idx+1))
		taken = true
	case isa.OpJr:
		next = int(r(in.Src1))
		taken = true
	case isa.OpFadd:
		wf(in.Dst, rf(in.Src1)+rf(in.Src2))
	case isa.OpFsub:
		wf(in.Dst, rf(in.Src1)-rf(in.Src2))
	case isa.OpFneg:
		wf(in.Dst, -rf(in.Src1))
	case isa.OpFabs:
		wf(in.Dst, math.Abs(rf(in.Src1)))
	case isa.OpFmul:
		wf(in.Dst, rf(in.Src1)*rf(in.Src2))
	case isa.OpFdiv:
		wf(in.Dst, rf(in.Src1)/rf(in.Src2))
	case isa.OpCvtif:
		wf(in.Dst, float64(r(in.Src1)))
	case isa.OpCvtfi:
		f := rf(in.Src1)
		if math.IsNaN(f) || f >= 9.3e18 || f <= -9.3e18 {
			return false, fmt.Errorf("sim: pc %d (%s): float-to-int overflow (%g)", idx, in, f)
		}
		w(in.Dst, int64(f))
	case isa.OpFslt:
		w(in.Dst, b2i(rf(in.Src1) < rf(in.Src2)))
	case isa.OpFsle:
		w(in.Dst, b2i(rf(in.Src1) <= rf(in.Src2)))
	case isa.OpFseq:
		w(in.Dst, b2i(rf(in.Src1) == rf(in.Src2)))
	case isa.OpFsne:
		w(in.Dst, b2i(rf(in.Src1) != rf(in.Src2)))
	case isa.OpFsqrt:
		wf(in.Dst, math.Sqrt(rf(in.Src1)))
	case isa.OpFsin:
		wf(in.Dst, math.Sin(rf(in.Src1)))
	case isa.OpFcos:
		wf(in.Dst, math.Cos(rf(in.Src1)))
	case isa.OpFatn:
		wf(in.Dst, math.Atan(rf(in.Src1)))
	case isa.OpFexp:
		wf(in.Dst, math.Exp(rf(in.Src1)))
	case isa.OpFlog:
		wf(in.Dst, math.Log(rf(in.Src1)))
	case isa.OpPrinti:
		e.output = append(e.output, isa.IntValue(r(in.Src1)))
	case isa.OpPrintf:
		e.output = append(e.output, isa.FloatValue(rf(in.Src1)))
	case isa.OpHalt:
		e.halted = true
		return false, nil
	default:
		return false, fmt.Errorf("sim: pc %d: unimplemented opcode %v", idx, in.Op)
	}

	if taken && in.Op != isa.OpJr {
		next = in.Target
	}
	e.pc = next
	return taken, nil
}

func (e *refEngine) result() *Result {
	r := &Result{
		Machine:      e.cfg.Name,
		Instructions: e.instrs,
		IssueGroups:  e.groups,
		MinorCycles:  e.lastComplete,
		BaseCycles:   e.cfg.BaseCycles(e.lastComplete),
		ClassCounts:  e.classCounts,
		Output:       e.output,
		Stalls:       e.stalls,
	}
	if e.icache != nil {
		st := e.icache.Stats()
		r.ICacheStats = &st
	}
	if e.dcache != nil {
		st := e.dcache.Stats()
		r.DCacheStats = &st
	}
	return r
}
