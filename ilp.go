// Package ilp is the public face of this reproduction of Jouppi & Wall,
// "Available Instruction-Level Parallelism for Superscalar and
// Superpipelined Machines" (ASPLOS 1989).
//
// It wraps the internal machinery — the TL benchmark language and compiler,
// the parameterizable machine descriptions, and the instruction-level
// simulator — behind a small API shaped like the paper's methodology:
// describe a machine, compile a program for it, simulate, compare.
//
//	m := ilp.Superscalar(4)
//	r, err := ilp.RunBenchmark("yacc", m, ilp.Options{})
//	base, _ := ilp.RunBenchmark("yacc", ilp.BaseMachine(), ilp.Options{})
//	fmt.Printf("speedup %.2f\n", r.SpeedupOver(base))
//
// See the examples directory for complete programs and cmd/ilpbench for
// the full reproduction of the paper's tables and figures.
package ilp

import (
	"context"
	"errors"
	"fmt"

	"ilp/internal/benchmarks"
	"ilp/internal/compiler"
	"ilp/internal/ilperr"
	"ilp/internal/isa"
	"ilp/internal/lang/interp"
	"ilp/internal/lang/parser"
	"ilp/internal/lang/sem"
	"ilp/internal/machine"
	"ilp/internal/metrics"
	"ilp/internal/sim"
	"ilp/internal/trace"
)

// Structured errors. Compilation and simulation failures carry the
// benchmark, machine name, machine fingerprint, and pipeline phase, so
// embedding callers can dispatch on the failure's coordinate:
//
//	var ce *ilp.CompileError
//	if errors.As(err, &ce) { log.Printf("%s broke on %s", ce.Benchmark, ce.Machine) }
//
// The same types flow out of the experiment harness (internal/experiments)
// and the CLIs.
type (
	// CompileError reports a failed (or panicked) compilation.
	CompileError = ilperr.CompileError
	// SimError reports a failed (or panicked) simulation.
	SimError = ilperr.SimError
	// MachineError reports an invalid machine description, rejected by
	// validation before it can produce nonsense cycle counts.
	MachineError = ilperr.MachineError
	// StoreError reports a result-store failure: an I/O error while
	// opening, appending, or compacting, or corruption detected on load
	// (match the cause with ErrCorrupt).
	StoreError = ilperr.StoreError
)

// ErrPanic marks errors recovered from a panicking measurement worker;
// match with errors.Is.
var ErrPanic = ilperr.ErrPanic

// ErrCorrupt marks a result-store record whose checksum or framing does
// not verify; match with errors.Is.
var ErrCorrupt = ilperr.ErrCorrupt

// IsTransient reports whether an error from this package's pipeline is a
// transient failure — one a retry policy may reasonably retry with
// backoff. Panics, cancellations, semantic compile/simulate failures, and
// detected corruption are permanent; store I/O errors and injected faults
// are transient. See internal/ilperr for the full taxonomy.
func IsTransient(err error) bool { return ilperr.IsTransient(err) }

// Machine is a machine description in the paper's §3 sense: issue width,
// superpipelining degree, per-class operation latencies, functional units,
// caches, and the register-file split. Obtain one from a preset and adjust
// its fields before use.
type Machine = machine.Config

// Preset machines from the paper's taxonomy (§2).
func BaseMachine() *Machine      { return machine.Base() }
func Superscalar(n int) *Machine { return machine.IdealSuperscalar(n) }
func Superpipelined(m int) *Machine {
	return machine.Superpipelined(m)
}
func SuperpipelinedSuperscalar(n, m int) *Machine {
	return machine.SuperpipelinedSuperscalar(n, m)
}
func MultiTitan() *Machine     { return machine.MultiTitan() }
func CRAY1() *Machine          { return machine.CRAY1() }
func Underpipelined() *Machine { return machine.Underpipelined() }

// Class identifies one of the fourteen instruction classes (§3); use these
// to adjust a Machine's Latency table or functional units.
type Class = isa.Class

// The fourteen instruction classes.
const (
	ClassLogical   = isa.ClassLogical
	ClassShift     = isa.ClassShift
	ClassAddSub    = isa.ClassAddSub
	ClassIntMul    = isa.ClassIntMul
	ClassIntDiv    = isa.ClassIntDiv
	ClassLoad      = isa.ClassLoad
	ClassStore     = isa.ClassStore
	ClassBranch    = isa.ClassBranch
	ClassJump      = isa.ClassJump
	ClassFPAddSub  = isa.ClassFPAddSub
	ClassFPMul     = isa.ClassFPMul
	ClassFPDiv     = isa.ClassFPDiv
	ClassFPSpecial = isa.ClassFPSpecial
	ClassMove      = isa.ClassMove
)

// OptLevel is the cumulative optimization level of Figure 4-8.
type OptLevel = compiler.Level

// Optimization levels.
const (
	O0 = compiler.O0 // no optimization
	O1 = compiler.O1 // + pipeline scheduling
	O2 = compiler.O2 // + intra-block optimizations
	O3 = compiler.O3 // + global optimizations
	O4 = compiler.O4 // + global register allocation
)

// Options selects compilation behavior.
type Options struct {
	// Level is the optimization level; the zero value means O4, the
	// paper's standard configuration. A level outside O0..O4 fails Compile.
	Level OptLevel
	// LevelSet must be true for Level O0 to be honored (Go zero-value
	// ambiguity); use WithLevel to construct.
	LevelSet bool
	// Unroll is the loop unroll factor (0 or 1 = none, negative fails
	// Compile; benchmarks with a paper-default, i.e. Linpack's 4x, apply it
	// when Unroll is 0).
	Unroll int
	// Careful enables careful unrolling: reduction reassociation and
	// scheduler memory disambiguation (§4.4).
	Careful bool
	// NoSchedule disables the pipeline scheduler regardless of level.
	NoSchedule bool
	// Verify runs the internal static verifier after every compiler pass
	// (machine-code well-formedness, dataflow lints, schedule legality);
	// a violation fails Compile with an error naming the offending pass.
	Verify bool
}

// WithLevel returns Options at an explicit optimization level.
func WithLevel(l OptLevel) Options { return Options{Level: l, LevelSet: true} }

func (o Options) level() compiler.Level {
	if !o.LevelSet && o.Level == compiler.O0 {
		return compiler.O4
	}
	return o.Level
}

// Result is a simulation result: cycle counts, instruction mix, stall
// breakdown, and program output.
type Result = sim.Result

// Value is one program output value.
type Value = isa.Value

// Program is a compiled TL program together with the metadata the
// scheduler and simulator need: its own copy of the machine it was compiled
// for, so later changes to the caller's Machine do not reach it, and the
// program predecoded for that machine, which every Run shares.
type Program struct {
	compiled *compiler.Compiled
	machine  *Machine
	code     *sim.Code
}

// Compile compiles TL source text for the machine. Failures are reported
// as a *CompileError naming the machine and its schedule fingerprint.
func Compile(source string, m *Machine, opts Options) (*Program, error) {
	if m == nil {
		m = machine.Base()
	}
	c, err := compiler.Compile(source, compiler.Options{
		Machine:    m,
		Level:      opts.level(),
		Unroll:     opts.Unroll,
		Careful:    opts.Careful,
		NoSchedule: opts.NoSchedule,
		Verify:     opts.Verify,
	})
	if err != nil {
		return nil, &CompileError{
			Machine: m.Name, Fingerprint: m.ScheduleFingerprint(),
			Phase: ilperr.PhaseCompile, Err: err,
		}
	}
	m = m.Clone()
	// A program the simulator rejects keeps no Code, so Run reports the
	// same SimError it would have without one.
	code, _ := sim.Predecode(c.Prog, m)
	return &Program{compiled: c, machine: m, code: code}, nil
}

// Disassemble returns the final scheduled machine code.
func (p *Program) Disassemble() string { return p.compiled.Prog.Disassemble() }

// StaticInstructions is the program's static instruction count.
func (p *Program) StaticInstructions() int { return len(p.compiled.Prog.Instrs) }

// Run simulates the compiled program on its machine. Failures are reported
// as a *SimError naming the machine and its canonical fingerprint.
func (p *Program) Run() (*Result, error) {
	return p.RunCtx(context.Background())
}

// RunCtx is Run with cancellation: the simulator's timing loop polls ctx
// and abandons the run with the context's cause error once ctx is done,
// so a long simulation embedded in a service can be bounded or aborted.
func (p *Program) RunCtx(ctx context.Context) (*Result, error) {
	res, err := sim.RunCtx(ctx, p.compiled.Prog, sim.Options{Machine: p.machine, Code: p.code})
	if err != nil {
		if ctx.Err() != nil {
			return nil, err // cancellation, not a simulator fault
		}
		return nil, &SimError{
			Machine: p.machine.Name, Fingerprint: p.machine.Fingerprint(),
			Phase: ilperr.PhaseSimulate, Err: err,
		}
	}
	return res, nil
}

// Interpret runs the program's source semantics through the reference
// interpreter (no compilation, no timing) and returns its output.
func Interpret(source string) ([]Value, error) {
	prog, err := parser.Parse(source)
	if err != nil {
		return nil, err
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		return nil, err
	}
	return interp.Run(info)
}

// Benchmarks lists the paper's eight-benchmark suite.
func Benchmarks() []string { return benchmarks.Names() }

// BenchmarkSource returns a suite member's TL source.
func BenchmarkSource(name string) (string, error) {
	b, err := benchmarks.ByName(name)
	if err != nil {
		return "", err
	}
	return b.Source, nil
}

// RunBenchmark compiles and simulates one suite benchmark on the machine.
func RunBenchmark(name string, m *Machine, opts Options) (*Result, error) {
	return RunBenchmarkCtx(context.Background(), name, m, opts)
}

// RunBenchmarkCtx is RunBenchmark with cancellation. Structured errors
// (CompileError/SimError) carry the benchmark name.
func RunBenchmarkCtx(ctx context.Context, name string, m *Machine, opts Options) (*Result, error) {
	b, err := benchmarks.ByName(name)
	if err != nil {
		return nil, err
	}
	if opts.Unroll == 0 {
		opts.Unroll = b.DefaultUnroll
	}
	p, err := Compile(b.Source, m, opts)
	if err != nil {
		return nil, withBenchmark(err, name)
	}
	res, err := p.RunCtx(ctx)
	if err != nil {
		return nil, withBenchmark(err, name)
	}
	return res, nil
}

// withBenchmark stamps the benchmark name onto a structured error built
// below the point where the name was known.
func withBenchmark(err error, name string) error {
	var ce *CompileError
	if errors.As(err, &ce) && ce.Benchmark == "" {
		ce.Benchmark = name
	}
	var se *SimError
	if errors.As(err, &se) && se.Benchmark == "" {
		se.Benchmark = name
	}
	return err
}

// Parallelism measures the available instruction-level parallelism of a
// benchmark in the paper's sense: its base-machine cycles divided by its
// cycles on an ideal superscalar machine of the given degree (§4's
// asymptote at degree 8).
func Parallelism(name string, degree int, opts Options) (float64, error) {
	if degree < 1 {
		return 0, fmt.Errorf("ilp: degree %d < 1", degree)
	}
	base, err := RunBenchmark(name, BaseMachine(), opts)
	if err != nil {
		return 0, err
	}
	wide, err := RunBenchmark(name, Superscalar(degree), opts)
	if err != nil {
		return 0, err
	}
	return base.BaseCycles / wide.BaseCycles, nil
}

// HarmonicMean aggregates speedups the way the paper's figures do.
func HarmonicMean(xs []float64) float64 { return metrics.HarmonicMean(xs) }

// TraceLimits holds the two classical trace-study parallelism limits for a
// program (the studies the paper cites in §4.2): Blocked respects
// conditional-branch boundaries (Riseman-Foster inhibition); Oracle assumes
// perfect branch prediction. Both assume infinite width, unit latencies,
// perfect register renaming, and exact memory disambiguation.
type TraceLimits struct {
	Instructions int64
	Blocked      float64
	Oracle       float64
	Truncated    bool
}

// MeasureTraceLimits compiles the benchmark (paper-standard options) and
// computes its trace-driven parallelism limits over at most maxTrace
// dynamic instructions (0 = the package default of 2M).
func MeasureTraceLimits(benchmark string, maxTrace int64) (*TraceLimits, error) {
	b, err := benchmarks.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	c, err := compiler.Compile(b.Source, compiler.Options{
		Machine: machine.Base(), Level: compiler.O4, Unroll: b.DefaultUnroll,
	})
	if err != nil {
		return nil, err
	}
	lim, err := trace.Analyze(c.Prog, trace.Options{MaxTrace: maxTrace})
	if err != nil {
		return nil, err
	}
	return &TraceLimits{
		Instructions: lim.Instructions,
		Blocked:      lim.BlockedParallelism(),
		Oracle:       lim.OracleParallelism(),
		Truncated:    lim.Truncated,
	}, nil
}

// AverageDegreeOfSuperpipelining computes the §2.7 metric for a machine
// given a measured dynamic class mix (Result.ClassCounts).
func AverageDegreeOfSuperpipelining(m *Machine, classCounts [isa.NumClasses]int64) float64 {
	return m.AverageDegreeOfSuperpipelining(classCounts)
}
