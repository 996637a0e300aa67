package sim

// Differential equivalence suite: every golden benchmark, compiled per
// machine configuration, is simulated with the preserved seed engine
// (reference_test.go) and with the predecoded engine, unhooked and with both
// OnIssue and OnTrace hooks, and all observable results must be
// bit-identical, the hooks' event streams included. This is the proof that
// the performance rewrite changed no semantics and no timing. Every run of
// the matrix uses a dedicated engine, so the suite also checks the
// scoreboard invariant the trace entry relies on (checkReadyBound) after
// each one.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ilp/internal/benchmarks"
	"ilp/internal/cache"
	"ilp/internal/compiler"
	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/statictime"
)

// diffMachines is the machine matrix: scalar base, ideal superscalar at
// three widths (unit multiplicity and width bookkeeping), a superpipeline
// (latency scaling and branch barriers), and four cache machines, which the
// fast path runs with fetch and data-miss modeling and without trace
// replay: MultiTitan with both caches, ext-icache's I-cache alone on an
// 8-wide superscalar, a D-cache alone on the base machine, and sec5-1's
// caches on a 4-wide ideal superscalar, whose Code carries traces and
// fused pairs (so its runs show the traces skipped and both halves of
// each fused pair fetched).
func diffMachines() []*machine.Config {
	ss8i := machine.IdealSuperscalar(8)
	ss8i.Name += "-icache"
	ss8i.ICache = &cache.Config{Name: "I", Lines: 64, LineWords: 4, MissPenalty: 16}
	based := machine.Base()
	based.Name += "-dcache"
	based.DCache = &cache.Config{Name: "D", Lines: 64, LineWords: 4, MissPenalty: 10}
	return []*machine.Config{
		machine.Base(),
		machine.IdealSuperscalar(2),
		machine.IdealSuperscalar(4),
		machine.IdealSuperscalar(8),
		machine.Superpipelined(4),
		titanCached(),
		ss8i,
		based,
		ss4Caches(),
	}
}

// titanCached is the MultiTitan with an I- and a D-cache.
func titanCached() *machine.Config {
	m := machine.MultiTitan()
	m.Name = "titan-cached"
	m.ICache = &cache.Config{Name: "diff-i", Lines: 256, LineWords: 4, MissPenalty: 12}
	m.DCache = &cache.Config{Name: "diff-d", Lines: 128, LineWords: 4, MissPenalty: 20}
	return m
}

// ss4Caches is sec5-1's cache machine: a 4-wide ideal superscalar with
// 128-line I- and D-caches of 4-word lines and a 20-cycle miss penalty.
func ss4Caches() *machine.Config {
	m := machine.IdealSuperscalar(4)
	m.Name += "-cache"
	m.ICache = &cache.Config{Name: "I", Lines: 128, LineWords: 4, MissPenalty: 20}
	m.DCache = &cache.Config{Name: "D", Lines: 128, LineWords: 4, MissPenalty: 20}
	return m
}

// hasCache reports whether the machine models an instruction or data cache.
func hasCache(cfg *machine.Config) bool { return cfg.ICache != nil || cfg.DCache != nil }

// events folds a run's hook events into a running hash, so two runs' event
// streams compare without keeping either: every OnIssue (idx, issue,
// complete) and OnTrace (idx, addr) event in order. Each step is a
// bijection of the hash for a given event word, so two streams that differ
// in one word always hash differently, and any other difference almost
// always does.
type events struct {
	n   int64 // OnIssue events
	h   uint64
	bad int64 // OnIssue events whose instruction pointer was not the program's
}

// hooked returns opts with both hooks reporting into ev, a fresh stream for
// runs of p. The hooks run once per retired instruction on both engines, so
// they keep their work, which the race detector multiplies, to a minimum.
func (ev *events) hooked(p *isa.Program, opts Options) Options {
	*ev = events{h: 14695981039346656037}
	instrs := p.Instrs
	opts.OnIssue = func(idx int, in *isa.Instr, issue, complete int64) {
		if in != &instrs[idx] {
			ev.bad++
		}
		ev.n++
		ev.h = mix(mix(mix(mix(ev.h, 1), uint64(idx)), uint64(issue)), uint64(complete))
	}
	opts.OnTrace = func(idx int, _ *isa.Instr, addr int64) {
		ev.h = mix(mix(mix(ev.h, 2), uint64(idx)), uint64(addr))
	}
	return opts
}

// mix folds one event word into an FNV-style running hash.
func mix(h, w uint64) uint64 { return (h ^ w) * 1099511628211 }

// compareEvents requires got's event stream to equal want's.
func compareEvents(t *testing.T, path string, want, got *events) {
	t.Helper()
	if got.bad != 0 {
		t.Errorf("%s: %d OnIssue events passed an instruction pointer that is not the program's", path, got.bad)
	}
	if got.n != want.n || got.h != want.h {
		t.Errorf("%s: %d hook events hashing to %#x, want %d hashing to %#x", path, got.n, got.h, want.n, want.h)
	}
}

// runChecked runs p on the dedicated engine e, failing the test (labelled
// by path) on an error, and checks checkReadyBound on the engine's final
// state.
func runChecked(t *testing.T, e *Engine, path string, p *isa.Program, opts Options) *Result {
	t.Helper()
	res := new(Result)
	if err := e.RunInto(p, opts, res); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	checkReadyBound(t, path, e)
	return res
}

// checkReadyBound asserts the invariant that lets trace entry skip its
// register scan: no register's scoreboard time exceeds lastComplete.
func checkReadyBound(t *testing.T, path string, e *Engine) {
	t.Helper()
	for r, at := range e.ready {
		if at > e.lastComplete {
			t.Errorf("%s: ready[%d] = %d exceeds lastComplete %d", path, r, at, e.lastComplete)
			return
		}
	}
}

func compareResults(t *testing.T, path string, want, got *Result) {
	t.Helper()
	if got.Machine != want.Machine {
		t.Errorf("%s: Machine = %q, want %q", path, got.Machine, want.Machine)
	}
	if got.Instructions != want.Instructions {
		t.Errorf("%s: Instructions = %d, want %d", path, got.Instructions, want.Instructions)
	}
	if got.IssueGroups != want.IssueGroups {
		t.Errorf("%s: IssueGroups = %d, want %d", path, got.IssueGroups, want.IssueGroups)
	}
	if got.MinorCycles != want.MinorCycles {
		t.Errorf("%s: MinorCycles = %d, want %d", path, got.MinorCycles, want.MinorCycles)
	}
	if got.BaseCycles != want.BaseCycles {
		t.Errorf("%s: BaseCycles = %g, want %g", path, got.BaseCycles, want.BaseCycles)
	}
	if got.ClassCounts != want.ClassCounts {
		t.Errorf("%s: ClassCounts = %v, want %v", path, got.ClassCounts, want.ClassCounts)
	}
	if got.Stalls != want.Stalls {
		t.Errorf("%s: Stalls = %+v, want %+v", path, got.Stalls, want.Stalls)
	}
	if len(got.Output) != len(want.Output) {
		t.Errorf("%s: %d output values, want %d", path, len(got.Output), len(want.Output))
	} else {
		for i := range want.Output {
			if got.Output[i] != want.Output[i] {
				t.Errorf("%s: Output[%d] = %v, want %v", path, i, got.Output[i], want.Output[i])
				break
			}
		}
	}
	switch {
	case (got.ICacheStats == nil) != (want.ICacheStats == nil):
		t.Errorf("%s: ICacheStats presence = %v, want %v", path, got.ICacheStats != nil, want.ICacheStats != nil)
	case got.ICacheStats != nil && *got.ICacheStats != *want.ICacheStats:
		t.Errorf("%s: ICacheStats = %+v, want %+v", path, *got.ICacheStats, *want.ICacheStats)
	}
	switch {
	case (got.DCacheStats == nil) != (want.DCacheStats == nil):
		t.Errorf("%s: DCacheStats presence = %v, want %v", path, got.DCacheStats != nil, want.DCacheStats != nil)
	case got.DCacheStats != nil && *got.DCacheStats != *want.DCacheStats:
		t.Errorf("%s: DCacheStats = %+v, want %+v", path, *got.DCacheStats, *want.DCacheStats)
	}
}

// compareCounts pins the per-instruction counters, folded from the block
// enter/exit counters: a run that replays traces and one that executes
// every instruction must agree index by index.
func compareCounts(t *testing.T, path string, want, got *Result) {
	t.Helper()
	if len(got.InstrCounts) != len(want.InstrCounts) {
		t.Fatalf("%s: %d InstrCounts, want %d", path, len(got.InstrCounts), len(want.InstrCounts))
	}
	for i := range want.InstrCounts {
		if got.InstrCounts[i] != want.InstrCounts[i] {
			t.Errorf("%s: InstrCounts[%d] = %d, want %d", path, i, got.InstrCounts[i], want.InstrCounts[i])
			break
		}
	}
	for i := range want.TakenExits {
		if got.TakenExits[i] != want.TakenExits[i] {
			t.Errorf("%s: TakenExits[%d] = %d, want %d", path, i, got.TakenExits[i], want.TakenExits[i])
			break
		}
	}
}

// checkStaticBounds is the cross-check oracle inlined into the differential
// suite: the simulated minor cycles must satisfy the static timing analyzer's
// lower and upper bounds computed from the run's own dynamic counts.
func checkStaticBounds(t *testing.T, p *isa.Program, cfg *machine.Config, r *Result) {
	t.Helper()
	a, err := statictime.Analyze(p, cfg)
	if err != nil {
		t.Fatalf("statictime: %v", err)
	}
	lo := a.LowerBound(r.InstrCounts, r.TakenExits)
	hi := a.UpperBound(r.InstrCounts)
	if lo > r.MinorCycles || r.MinorCycles > hi {
		t.Errorf("%s: %d minor cycles outside static bounds [%d, %d]", cfg.Name, r.MinorCycles, lo, hi)
	}
}

// randomCFGProgram generates a deterministic random control-flow graph: a
// handful of basic blocks full of random integer ALU work, address-masked
// loads and stores into a small data segment, calls into a straight-line
// subroutine (jr return — mid-block entry for the block counters), and
// data-dependent conditional branches between arbitrary blocks. Termination
// is guaranteed by a fuel counter burned at every block entry; when it runs
// out the block bails to the exit, which prints every data register (so the
// differential comparison covers architectural state, not just timing).
func randomCFGProgram(rng *rand.Rand) *isa.Program {
	const (
		loData, hiData = 10, 20 // data registers the random ops touch
		rFuel          = 21
		rAddr          = 22
	)
	reg := func() isa.Reg { return isa.R(loData + rng.Intn(hiData-loData+1)) }

	b := isa.NewBuilder()
	words := make([]int64, 64)
	for i := range words {
		words[i] = rng.Int63n(1 << 24)
	}
	dataBase := b.Data(words...)

	b.Li(isa.R(rFuel), int64(150+rng.Intn(150)))
	for r := loData; r <= hiData; r++ {
		b.Li(isa.R(r), rng.Int63n(1<<20)-(1<<19))
	}
	b.Jump("b0")

	// A tiny leaf subroutine: blocks call it through jal, and the jr return
	// lands mid-stream wherever the caller sat — the case the block-entry
	// accounting must get right.
	b.Label("sub")
	b.Op(isa.OpXor, reg(), reg(), reg())
	b.Imm(isa.OpAddi, reg(), reg(), rng.Int63n(64))
	b.Ret()

	threeReg := []isa.Opcode{
		isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpSlt, isa.OpSle, isa.OpSeq, isa.OpSne, isa.OpMul,
	}
	immOps := []isa.Opcode{
		isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori,
		isa.OpSlli, isa.OpSrli, isa.OpSrai,
	}
	condOps := []isa.Opcode{
		isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBle, isa.OpBgt,
	}

	nBlocks := 3 + rng.Intn(6)
	for blk := 0; blk < nBlocks; blk++ {
		b.Label(fmt.Sprintf("b%d", blk))
		b.Imm(isa.OpAddi, isa.R(rFuel), isa.R(rFuel), -1)
		b.Branch(isa.OpBle, isa.R(rFuel), isa.RZero, "exit")
		for op := 2 + rng.Intn(9); op > 0; op-- {
			switch rng.Intn(6) {
			case 0:
				b.Op(threeReg[rng.Intn(len(threeReg))], reg(), reg(), reg())
			case 1:
				o := immOps[rng.Intn(len(immOps))]
				imm := rng.Int63n(1 << 16)
				if o == isa.OpSlli || o == isa.OpSrli || o == isa.OpSrai {
					imm = rng.Int63n(64)
				}
				b.Imm(o, reg(), reg(), imm)
			case 2:
				b.Li(reg(), rng.Int63n(1<<30))
			case 3:
				b.Imm(isa.OpAndi, isa.R(rAddr), reg(), 63)
				b.Load(isa.OpLw, reg(), isa.R(rAddr), dataBase)
			case 4:
				b.Imm(isa.OpAndi, isa.R(rAddr), reg(), 63)
				b.Store(isa.OpSw, reg(), isa.R(rAddr), dataBase)
			case 5:
				b.Op1(isa.OpMov, reg(), reg())
			}
		}
		if rng.Intn(4) == 0 {
			b.Call("sub")
		}
		b.Branch(condOps[rng.Intn(len(condOps))], reg(), reg(),
			fmt.Sprintf("b%d", rng.Intn(nBlocks)))
		b.Jump(fmt.Sprintf("b%d", rng.Intn(nBlocks)))
	}

	b.Label("exit")
	for r := loData; r <= hiData; r++ {
		b.Print(isa.R(r))
	}
	b.Halt()
	return b.MustFinish()
}

// fuzzMachines is diffMachines plus the configurations whose functional
// units really bind (multiplicity below the issue width, or issue latency
// above one) — the generated programs must agree there too, since those are
// exactly the paths the predecoded fUnit flag decides to keep or skip.
func fuzzMachines() []*machine.Config {
	return append(diffMachines(),
		machine.SuperscalarWithConflicts(4),
		machine.Underpipelined(),
	)
}

// TestDifferentialRandomCFG fuzzes the block-fused engine against the
// preserved seed engine on randomized control-flow graphs: cycles, stalls,
// class counts, and printed output must be bit-identical on every machine,
// for the engine's own predecode, a shared predecode, and a hooked run on
// the shared predecode, whose event stream must be the reference's.
func TestDifferentialRandomCFG(t *testing.T) {
	seeds := 16
	if testing.Short() {
		seeds = 4
	}
	cfgs := fuzzMachines()
	e := NewEngine() // one dedicated engine, re-armed by every run's Reset
	for seed := 0; seed < seeds; seed++ {
		p := randomCFGProgram(rand.New(rand.NewSource(int64(seed))))
		for _, cfg := range cfgs {
			t.Run(fmt.Sprintf("seed%d/%s", seed, cfg.Name), func(t *testing.T) {
				opts := Options{Machine: cfg}
				var refEv events
				want, err := refRun(p, refEv.hooked(p, opts))
				if err != nil {
					t.Fatalf("reference engine: %v", err)
				}

				got := runChecked(t, e, "fast", p, opts)
				compareResults(t, "fast", want, got)

				code, err := Predecode(p, cfg)
				if err != nil {
					t.Fatalf("predecode: %v", err)
				}
				copts := opts
				copts.Code = code
				got = runChecked(t, e, "shared-code", p, copts)
				compareResults(t, "shared-code", want, got)

				var ev events
				got = runChecked(t, e, "hooked", p, ev.hooked(p, copts))
				compareResults(t, "hooked", want, got)
				compareEvents(t, "hooked", &refEv, &ev)

				// Counted runs: CountInstrs must not perturb timing, a run
				// that replays traces and a hooked run, which executes
				// every instruction, must count alike, and the static
				// bounds oracle must hold for the measured cycle count.
				copts.CountInstrs = true
				fastC := runChecked(t, e, "counted-fast", p, copts)
				compareResults(t, "counted-fast", want, fastC)
				hookC := runChecked(t, e, "counted-hooked", p, ev.hooked(p, copts))
				compareResults(t, "counted-hooked", want, hookC)
				compareEvents(t, "counted-hooked", &refEv, &ev)
				compareCounts(t, "counted", fastC, hookC)
				checkStaticBounds(t, p, cfg, fastC)
			})
		}
	}
}

// TestSharedCodeConcurrent proves the immutability contract: one predecoded
// Code backing many concurrent runs (as the experiments runner does across
// sweep workers) must produce the reference result from every goroutine.
// Run under -race this also proves no engine writes the shared artifact.
func TestSharedCodeConcurrent(t *testing.T) {
	p := randomCFGProgram(rand.New(rand.NewSource(99)))
	cfg := machine.IdealSuperscalar(4)
	want, err := refRun(p, Options{Machine: cfg})
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	code, err := Predecode(p, cfg)
	if err != nil {
		t.Fatalf("predecode: %v", err)
	}

	const workers, runs = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*runs)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				got, err := Run(p, Options{Machine: cfg, Code: code})
				if err != nil {
					errs <- fmt.Errorf("shared-code run: %v", err)
					return
				}
				if got.MinorCycles != want.MinorCycles || got.Stalls != want.Stalls ||
					got.ClassCounts != want.ClassCounts {
					errs <- fmt.Errorf("shared-code run diverged: cycles %d want %d",
						got.MinorCycles, want.MinorCycles)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDifferentialEngines(t *testing.T) {
	suite := benchmarks.All()
	cfgs := diffMachines()
	if testing.Short() {
		cfgs = []*machine.Config{machine.Base(), titanCached(), ss4Caches()}
	}
	e := NewEngine() // one dedicated engine, re-armed by every run's Reset
	for _, b := range suite {
		for _, cfg := range cfgs {
			t.Run(b.Name+"/"+cfg.Name, func(t *testing.T) {
				c, err := compiler.Compile(b.Source, compiler.Options{
					Machine: cfg, Level: compiler.O4, Unroll: b.DefaultUnroll,
				})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				opts := Options{Machine: cfg}
				var refEv events
				want, err := refRun(c.Prog, refEv.hooked(c.Prog, opts))
				if err != nil {
					t.Fatalf("reference engine: %v", err)
				}

				// Fast path: Run picks it whenever no hook is set, caches
				// or not.
				got := runChecked(t, e, "fast", c.Prog, opts)
				compareResults(t, "fast", want, got)

				// On a cache machine, also run shared Code specialized under
				// the program's own profile, as the experiments runner
				// builds it: its traces exist but must never replay.
				if hasCache(cfg) {
					code, err := Predecode(c.Prog, cfg)
					if err != nil {
						t.Fatalf("predecode: %v", err)
					}
					prof, err := ProfileRun(context.Background(), code, 0, 0)
					if err != nil {
						t.Fatalf("profile run: %v", err)
					}
					spec, err := PredecodeProfiled(c.Prog, cfg, prof)
					if err != nil {
						t.Fatalf("profiled predecode: %v", err)
					}
					sopts := opts
					sopts.Code = spec
					got = runChecked(t, e, "specialized", c.Prog, sopts)
					compareResults(t, "specialized", want, got)
					if e.replays != 0 {
						t.Errorf("specialized: %d trace replays on a cache machine", e.replays)
					}
					if cfg.Name == ss4Caches().Name && (spec.Superblocks() == 0 || fusedPairs(spec) == 0) {
						t.Errorf("%s: Code has %d traces and %d fused pairs, want both > 0",
							cfg.Name, spec.Superblocks(), fusedPairs(spec))
					}
				}

				// Hooked run, caches included: the reference's result and
				// event stream.
				var ev events
				got = runChecked(t, e, "hooked", c.Prog, ev.hooked(c.Prog, opts))
				compareResults(t, "hooked", want, got)
				compareEvents(t, "hooked", &refEv, &ev)

				// Static bounds oracle on the real benchmark programs.
				copts := opts
				copts.CountInstrs = true
				counted := runChecked(t, e, "counted", c.Prog, copts)
				compareResults(t, "counted", want, counted)
				checkStaticBounds(t, c.Prog, cfg, counted)
			})
		}
	}
}

// TestHookedRunReportsFusedPairs: on a Code whose predecode fuses an
// ALU+ALU pair and an ALU+branch pair, a hooked run reports both halves of
// each pair, in program order, with the reference engine's issue and
// completion cycles.
func TestHookedRunReportsFusedPairs(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.R(10), 0).Li(isa.R(11), 3)
	b.Label("loop")
	b.Imm(isa.OpAddi, isa.R(12), isa.R(12), 5).Op(isa.OpXor, isa.R(13), isa.R(12), isa.R(10))
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), 1).Branch(isa.OpBlt, isa.R(10), isa.R(11), "loop")
	b.Print(isa.R(13)).Halt()
	p := b.MustFinish()
	cfg := machine.IdealSuperscalar(4)
	code, err := Predecode(p, cfg)
	if err != nil {
		t.Fatalf("predecode: %v", err)
	}
	for idx, fop := range map[int]isa.Opcode{0: opFusedAluAlu, 2: opFusedAluAlu, 4: opFusedAluBr} {
		if code.dec[idx].fop != fop {
			t.Fatalf("instruction %d dispatches as %v, want the fused opcode %v", idx, code.dec[idx].fop, fop)
		}
	}

	type event struct {
		idx             int
		issue, complete int64
	}
	hook := func(evs *[]event) func(int, *isa.Instr, int64, int64) {
		return func(idx int, _ *isa.Instr, issue, complete int64) {
			*evs = append(*evs, event{idx, issue, complete})
		}
	}
	var ref, got []event
	want, err := refRun(p, Options{Machine: cfg, OnIssue: hook(&ref)})
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	res := runChecked(t, NewEngine(), "hooked", p, Options{Machine: cfg, Code: code, OnIssue: hook(&got)})
	compareResults(t, "hooked", want, res)
	var idxs []int
	for _, ev := range got {
		idxs = append(idxs, ev.idx)
	}
	if wantIdx := []int{0, 1, 2, 3, 4, 5, 2, 3, 4, 5, 2, 3, 4, 5, 6, 7}; !slices.Equal(idxs, wantIdx) {
		t.Errorf("hooked run reported instructions %v, want %v", idxs, wantIdx)
	}
	if !slices.Equal(got, ref) {
		t.Errorf("hooked run reported %v, the reference engine %v", got, ref)
	}
}

// fusedPairs counts the fused superinstructions in code's predecode.
func fusedPairs(code *Code) int {
	n := 0
	for i := range code.dec {
		if f := code.dec[i].fop; f == opFusedAluBr || f == opFusedAluAlu {
			n++
		}
	}
	return n
}
