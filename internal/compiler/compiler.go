// Package compiler is the driver for the TL language system, mirroring the
// paper's §3 pipeline: parse, analyze, (optionally unroll), generate IR,
// optimize at one of the five Figure 4-8 levels, allocate registers, emit
// machine code, and schedule it for a particular machine description.
//
// The machine description reaches the pipeline in only two places (§3):
// the register allocator reads its temporary/home split, and the pipeline
// scheduler reads its latencies and functional units. The driver is split
// at the scheduler accordingly. Lower runs everything before it and yields
// a Lowered program that depends on the machine only through the register
// split; (*Lowered).Schedule copies that program and schedules the copy for
// one machine with the same split. One Lowered thus serves a whole sweep of
// machines that differ in latencies, units or issue width. Compile is Lower
// followed by Schedule.
package compiler

import (
	"fmt"
	"slices"

	"ilp/internal/compiler/codegen"
	"ilp/internal/compiler/irgen"
	"ilp/internal/compiler/opt"
	"ilp/internal/compiler/regalloc"
	"ilp/internal/compiler/sched"
	"ilp/internal/ir"
	"ilp/internal/isa"
	"ilp/internal/lang/parser"
	"ilp/internal/lang/sem"
	"ilp/internal/machine"
	"ilp/internal/verify"
)

// Level is the cumulative optimization level, matching the x-axis of
// Figure 4-8: "Each time we move to the right, we add a new set of
// optimizations. In order, these are pipeline scheduling, intra-block
// optimizations, global optimizations, and global register allocation."
type Level int

// Optimization levels.
const (
	// O0: no optimization at all; no scheduling.
	O0 Level = iota
	// O1: pipeline instruction scheduling.
	O1
	// O2: O1 + intra-block optimizations (constant folding, local CSE,
	// copy propagation, store forwarding, dead code).
	O2
	// O3: O2 + global optimizations (loop-invariant code motion, global
	// dead code).
	O3
	// O4: O3 + global register allocation of local and global variables
	// into home registers.
	O4
)

// String names the level like the figure's x-axis.
func (l Level) String() string {
	switch l {
	case O0:
		return "none"
	case O1:
		return "scheduling"
	case O2:
		return "scheduling+local"
	case O3:
		return "scheduling+local+global"
	case O4:
		return "scheduling+local+global+regalloc"
	}
	return fmt.Sprintf("O%d", int(l))
}

// Options configures a compilation.
type Options struct {
	// Machine is the target description: the scheduler uses its
	// latencies, the register allocator its temporary/home split.
	// Defaults to machine.Base().
	Machine *machine.Config
	// Level is the optimization level, O0..O4 (O4 is the paper's standard
	// configuration for §4.1–4.3); the zero value is O0.
	Level Level
	// Unroll duplicates eligible innermost loop bodies by this factor
	// (0 or 1 disables; negative or above MaxUnroll is an error).
	Unroll int
	// Careful enables the careful-unrolling pipeline: reassociation of
	// reduction chains and memory disambiguation in the scheduler
	// (§4.4: "careful unrolling goes farther").
	Careful bool
	// NoSchedule forces scheduling off regardless of level (used by the
	// scheduling ablation).
	NoSchedule bool
	// Verify runs the internal/verify static checker after every pass:
	// IR validation after each optimization, the machine-code verifier and
	// dataflow lints after code generation, and full schedule legality
	// (translation validation against the scheduler's own dependence
	// analysis) after scheduling. The first violation aborts compilation
	// with an error naming the pass that introduced it. Off by default:
	// the verified pipeline is the debugging configuration, the unverified
	// one the measurement configuration.
	Verify bool
}

// testHook, when non-nil, runs after the named machine-level pass
// ("codegen", "sched") completes and before its verification, so tests can
// corrupt the program deliberately and prove that Verify attributes the
// damage to the right pass.
var testHook func(pass string, p *isa.Program, mem []ir.MemRef)

// Compiled is a fully lowered program ready for simulation.
type Compiled struct {
	Prog *isa.Program
	// Mem annotates each instruction (parallel to Prog.Instrs).
	Mem []ir.MemRef
	// BlockStarts lists basic-block leader indices.
	BlockStarts []int
	// Info is the semantic analysis result (the reference interpreter
	// runs from it).
	Info *sem.Info
	// IR is the optimized intermediate form, for inspection and tests.
	IR *ir.Program
	// UnrolledLoops counts how many loops the unroller transformed.
	UnrolledLoops int
}

// Compile runs the full pipeline on TL source text: Lower, then Schedule
// for opts.Machine.
func Compile(src string, opts Options) (*Compiled, error) {
	l, err := Lower(src, opts)
	if err != nil {
		return nil, err
	}
	// Compile is the lowered program's only user, so it schedules that
	// program in place instead of a copy.
	if err := l.schedule(&l.c, l.opts.Machine, opts.NoSchedule); err != nil {
		return nil, err
	}
	return &l.c, nil
}

// Lowered is a program compiled up to the pipeline scheduler: parsed,
// analyzed, unrolled, optimized, register-allocated and emitted, but not
// yet scheduled. It depends on the machine it was lowered for only through
// that machine's temporary/home register split. A Lowered is never
// modified after Lower returns, so any number of goroutines may Schedule
// it at once.
type Lowered struct {
	// opts are the lowering options, Machine resolved to the description
	// whose register split the program was allocated for.
	opts Options
	// c is the unscheduled program; Schedule hands out scheduled copies.
	c Compiled
}

// MaxUnroll is the largest unroll factor Lower accepts. A compile's time
// and memory grow with the square of the factor (liveness alone keeps a
// bit per block and virtual register), and the experiments unroll at most
// 10 times.
const MaxUnroll = 64

// Lower runs every pass before the scheduler. It rejects a Level outside
// O0..O4 and an Unroll that is negative or above MaxUnroll. Of
// opts.Machine it reads only the register split (regalloc.PromoteHomes and
// regalloc.Allocate); opts.NoSchedule is ignored, since it applies at
// Schedule.
func Lower(src string, opts Options) (*Lowered, error) {
	if opts.Level < O0 || opts.Level > O4 {
		return nil, fmt.Errorf("compiler: optimization level %d is outside O0..O4", int(opts.Level))
	}
	if opts.Unroll < 0 {
		return nil, fmt.Errorf("compiler: unroll factor %d is negative", opts.Unroll)
	}
	if opts.Unroll > MaxUnroll {
		return nil, fmt.Errorf("compiler: unroll factor %d is above the limit of %d", opts.Unroll, MaxUnroll)
	}
	cfg := opts.Machine
	if cfg == nil {
		cfg = machine.Base()
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	opts.Machine = cfg

	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		return nil, err
	}

	unrolled := 0
	if opts.Unroll > 1 {
		unrolled = opt.UnrollLoops(prog, opts.Unroll)
	}

	irProg, err := irgen.Generate(info)
	if err != nil {
		return nil, err
	}
	if err := verifyIR(irProg, "irgen", opts); err != nil {
		return nil, err
	}

	if err := applyOptimizations(irProg, cfg, opts); err != nil {
		return nil, err
	}

	if err := irProg.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: optimizer produced invalid IR: %w", err)
	}

	res, err := codegen.Generate(irProg, cfg)
	if err != nil {
		return nil, err
	}
	if testHook != nil {
		testHook("codegen", res.Prog, res.Mem)
	}
	if opts.Verify {
		if err := verify.AsError(verify.Check(res.Prog, verify.Options{
			Machine: cfg, Mem: res.Mem, Pass: "codegen",
		})); err != nil {
			return nil, err
		}
	}

	return &Lowered{opts: opts, c: Compiled{
		Prog:          res.Prog,
		Mem:           res.Mem,
		BlockStarts:   res.BlockStarts,
		Info:          info,
		IR:            irProg,
		UnrolledLoops: unrolled,
	}}, nil
}

// Schedule finishes the compile for machine m (nil means machine.Base()):
// it copies the lowered instructions and memory annotations and, unless
// the level is O0 or noSchedule is set, schedules the copy for m's
// latencies and units. The returned program shares its data segment,
// symbols, block leaders, semantic info and IR with l; treat them as
// read-only. It is an error for m to split its registers differently from
// the machine l was lowered for.
func (l *Lowered) Schedule(m *machine.Config, noSchedule bool) (*Compiled, error) {
	c := l.c
	prog := *c.Prog
	prog.Instrs = slices.Clone(prog.Instrs)
	c.Prog, c.Mem = &prog, slices.Clone(c.Mem)
	if err := l.schedule(&c, m, noSchedule); err != nil {
		return nil, err
	}
	return &c, nil
}

// schedule schedules c for m in place: a copy of l's program, or — for
// Compile — l's own. Verify checks the schedule against l's unscheduled
// program, so scheduling l's own program under Verify keeps a copy first.
func (l *Lowered) schedule(c *Compiled, m *machine.Config, noSchedule bool) error {
	if m == nil {
		m = machine.Base()
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("compiler: %w", err)
	}
	if lm := l.opts.Machine; !sameRegSplit(m, lm) {
		return fmt.Errorf("compiler: machine %q divides its registers %d/%d int, %d/%d fp (temps/homes), but the program was lowered for %q's %d/%d int, %d/%d fp",
			m.Name, m.IntTemps, m.IntHomes, m.FPTemps, m.FPHomes,
			lm.Name, lm.IntTemps, lm.IntHomes, lm.FPTemps, lm.FPHomes)
	}
	if l.opts.Level < O1 || noSchedule {
		return nil
	}

	preInstrs, preMem := l.c.Prog.Instrs, l.c.Mem
	if l.opts.Verify && c == &l.c {
		preInstrs, preMem = slices.Clone(preInstrs), slices.Clone(preMem)
	}
	sched.Schedule(c.Prog, c.Mem, c.BlockStarts, m, sched.Options{Careful: l.opts.Careful})
	if testHook != nil {
		testHook("sched", c.Prog, c.Mem)
	}
	if l.opts.Verify {
		diags := verify.CheckSchedule(preInstrs, c.Prog.Instrs, preMem, c.Mem,
			c.BlockStarts, l.opts.Careful, "sched")
		diags = append(diags, verify.Check(c.Prog, verify.Options{
			Machine: m, Mem: c.Mem, Pass: "sched",
		})...)
		if err := verify.AsError(diags); err != nil {
			return err
		}
	}
	return nil
}

// sameRegSplit reports whether a and b divide their register files into
// the same numbers of temporaries and homes: the only machine facts Lower
// reads.
func sameRegSplit(a, b *machine.Config) bool {
	return a.IntTemps == b.IntTemps && a.IntHomes == b.IntHomes &&
		a.FPTemps == b.FPTemps && a.FPHomes == b.FPHomes
}

// verifyIR validates the IR after the named pass when opts.Verify is set,
// so a malformed module is attributed to the pass that produced it.
func verifyIR(irProg *ir.Program, pass string, opts Options) error {
	if !opts.Verify {
		return nil
	}
	if err := irProg.Validate(); err != nil {
		return fmt.Errorf("verify: after %s: %w", pass, err)
	}
	return nil
}

func applyOptimizations(irProg *ir.Program, cfg *machine.Config, opts Options) error {
	check := func(pass string) error { return verifyIR(irProg, pass, opts) }
	// One Scratch serves every pass call of the compile.
	var s opt.Scratch
	local := func() error {
		for _, f := range irProg.Funcs {
			for round := 0; round < 3; round++ {
				changed := s.ConstFold(f)
				if err := check("opt/constfold"); err != nil {
					return err
				}
				if s.LocalCSE(f) {
					changed = true
				}
				if err := check("opt/cse"); err != nil {
					return err
				}
				if s.DeadCode(f) {
					changed = true
				}
				if err := check("opt/dce"); err != nil {
					return err
				}
				if !changed {
					break
				}
			}
		}
		return nil
	}
	if opts.Level >= O2 {
		if err := local(); err != nil {
			return err
		}
	}
	if opts.Level >= O3 {
		for _, f := range irProg.Funcs {
			s.LoopInvariant(f)
		}
		if err := check("opt/licm"); err != nil {
			return err
		}
		if err := local(); err != nil {
			return err
		}
	}
	if opts.Careful {
		// Reassociation needs store forwarding to expose reduction
		// chains as register chains; ensure at least one local round
		// even below O2.
		if opts.Level < O2 {
			if err := local(); err != nil {
				return err
			}
		}
		for _, f := range irProg.Funcs {
			s.Reassociate(f)
		}
		if err := check("opt/reassoc"); err != nil {
			return err
		}
		if err := local(); err != nil {
			return err
		}
	}
	if opts.Level >= O4 {
		regalloc.PromoteHomes(irProg, cfg)
		if err := check("regalloc/promote"); err != nil {
			return err
		}
		// Clean the promotion moves: uses read home registers directly.
		if err := local(); err != nil {
			return err
		}
	}
	return nil
}
