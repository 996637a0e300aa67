package sim

// Record/walk tests: a path recorded on one machine must time every other
// cache-free machine of the same front bit-identically to the seed
// reference engine (differential), every schedule of a front must record
// one path (the premise), and the walker must reject paths that do not fit
// its program and stop on the instruction limit and on cancellation.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ilp/internal/benchmarks"
	"ilp/internal/compiler"
	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/statictime"
)

// cacheFree filters a machine list down to the machines a walk can time.
func cacheFree(cfgs []*machine.Config) []*machine.Config {
	var out []*machine.Config
	for _, cfg := range cfgs {
		if !hasCache(cfg) {
			out = append(out, cfg)
		}
	}
	return out
}

// specialized predecodes p for cfg with traces built under p's own
// profile, as the experiments runner builds every compile's Code, so walks
// meet profiled guards and mispath exits.
func specialized(t *testing.T, p *isa.Program, cfg *machine.Config) *Code {
	t.Helper()
	code, err := Predecode(p, cfg)
	if err != nil {
		t.Fatalf("predecode: %v", err)
	}
	prof, err := ProfileRun(context.Background(), code, 0, 0)
	if err != nil {
		t.Fatalf("profile run: %v", err)
	}
	spec, err := PredecodeProfiled(p, cfg, prof)
	if err != nil {
		t.Fatalf("profiled predecode: %v", err)
	}
	return spec
}

// recordPath records p's path on e and closes it, returning no path if the
// recording failed.
func recordPath(e *Engine, p *isa.Program, opts Options, res *Result) (*Path, error) {
	path := NewPath(p)
	err := e.RecordIntoCtx(context.Background(), p, opts, res, path)
	path.Close(err)
	if err != nil {
		return nil, err
	}
	return path, nil
}

// record records p's path on a dedicated engine and checks the recording
// run's own result against want.
func record(t *testing.T, p *isa.Program, opts Options, want *Result) *Path {
	t.Helper()
	res := new(Result)
	path, err := recordPath(NewEngine(), p, opts, res)
	if err != nil {
		t.Fatalf("record on %s: %v", opts.Machine.Name, err)
	}
	compareResults(t, "recording", want, res)
	return path
}

// walkChecked walks p under opts from path on e, with and without
// CountInstrs, and checks both results against want and the counts against
// a counted fast-path run of the same options.
func walkChecked(t *testing.T, e *Engine, label string, p *isa.Program, path *Path, opts Options, want *Result) {
	t.Helper()
	got := new(Result)
	if err := e.WalkIntoCtx(context.Background(), p, path, opts, got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkReadyBound(t, label, e)
	compareResults(t, label, want, got)
	copts := opts
	copts.CountInstrs = true
	counted := new(Result)
	if err := e.WalkIntoCtx(context.Background(), p, path, copts, counted); err != nil {
		t.Fatalf("%s counted: %v", label, err)
	}
	compareResults(t, label+" counted", want, counted)
	compareCounts(t, label+" counted", runChecked(t, NewEngine(), "counted fast", p, copts), counted)
}

// skipUnderRace skips a single-goroutine differential test under the race
// detector, where it would gain nothing but time; the plain build runs it
// in full.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("single-goroutine differential test skipped under the race detector")
	}
}

// TestWalkMatchesReference records each golden benchmark's path on one
// cache-free machine of diffMachines and walks every cache-free machine's
// own schedule of the same front, on plain and profile-specialized Code:
// each walk must equal the seed reference engine on that machine, counts
// included. A reduced run keeps base, a superscalar and the superpipeline.
func TestWalkMatchesReference(t *testing.T) {
	skipUnderRace(t)
	cfgs := cacheFree(diffMachines())
	if testing.Short() {
		cfgs = []*machine.Config{machine.Base(), machine.IdealSuperscalar(4), machine.Superpipelined(4)}
	}
	e := NewEngine()
	for bi, b := range benchmarks.All() {
		t.Run(b.Name, func(t *testing.T) {
			copts := compiler.Options{Level: compiler.O4, Unroll: b.DefaultUnroll, Machine: cfgs[0]}
			low, err := compiler.Lower(b.Source, copts)
			if err != nil {
				t.Fatalf("lower: %v", err)
			}
			progs := make([]*isa.Program, len(cfgs))
			wants := make([]*Result, len(cfgs))
			for i, cfg := range cfgs {
				sc, err := low.Schedule(cfg, false)
				if err != nil {
					t.Fatalf("schedule for %s: %v", cfg.Name, err)
				}
				progs[i] = sc.Prog
				if wants[i], err = refRun(sc.Prog, Options{Machine: cfg}); err != nil {
					t.Fatalf("reference engine on %s: %v", cfg.Name, err)
				}
			}
			rec := bi % len(cfgs) // rotate the recording machine
			path := record(t, progs[rec], Options{Machine: cfgs[rec], Code: specialized(t, progs[rec], cfgs[rec])}, wants[rec])
			for i, cfg := range cfgs {
				opts := Options{Machine: cfg}
				walkChecked(t, e, "walk "+cfg.Name, progs[i], path, opts, wants[i])
				opts.Code = specialized(t, progs[i], cfg)
				walkChecked(t, e, "walk specialized "+cfg.Name, progs[i], path, opts, wants[i])
			}
		})
	}
}

// recordRandomCFG records the path of the random control-flow graph p on
// the cache-free machine rec, with the Code specialized under prof.
func recordRandomCFG(t *testing.T, p *isa.Program, prof *statictime.Profile, rec *machine.Config) *Path {
	t.Helper()
	want, err := refRun(p, Options{Machine: rec, MemWords: fuzzMemWords})
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	spec, err := PredecodeProfiled(p, rec, prof)
	if err != nil {
		t.Fatalf("profiled predecode: %v", err)
	}
	return record(t, p, Options{Machine: rec, MemWords: fuzzMemWords, Code: spec}, want)
}

// walkRandomCFG walks p on the cache-free machine cfg from path, on plain
// Code and on spec, and checks both walks against the reference result
// want.
func walkRandomCFG(t *testing.T, e *Engine, p *isa.Program, path *Path, cfg *machine.Config, spec *Code, want *Result) {
	t.Helper()
	opts := Options{Machine: cfg, MemWords: fuzzMemWords}
	walkChecked(t, e, "walk", p, path, opts, want)
	opts.Code = spec
	walkChecked(t, e, "walk specialized", p, path, opts, want)
}

// TestWalkRandomCFG records each random control-flow graph of
// TestDifferentialRandomCFG on one cache-free machine and walks it on every
// cache-free fuzz machine, units that bind included.
func TestWalkRandomCFG(t *testing.T) {
	skipUnderRace(t)
	cfgs := cacheFree(fuzzMachines())
	e := NewEngine()
	for seed := range randomCFGSeeds() {
		p, prof := randomCFG(t, int64(seed), 0)
		path := recordRandomCFG(t, p, prof, cfgs[seed%len(cfgs)])
		for _, cfg := range cfgs {
			t.Run(fmt.Sprintf("seed%d/%s", seed, cfg.Name), func(t *testing.T) {
				want, err := refRun(p, Options{Machine: cfg, MemWords: fuzzMemWords})
				if err != nil {
					t.Fatalf("reference engine: %v", err)
				}
				spec, err := PredecodeProfiled(p, cfg, prof)
				if err != nil {
					t.Fatalf("profiled predecode: %v", err)
				}
				walkRandomCFG(t, e, p, path, cfg, spec, want)
			})
		}
	}
}

// TestFrontInvariance is the premise of the walker as a property: every
// schedule of one compiler front — each cache-free machine preset the
// sweep uses, scheduled and unscheduled — records one identical path,
// output, instruction count and class mix. Fronts: every benchmark at O0
// and O4 (default unrolling), plus careful linpack and livermore. A
// reduced run checks the O4 fronts on four of the presets.
func TestFrontInvariance(t *testing.T) {
	skipUnderRace(t)
	cfgs := []*machine.Config{
		machine.Base(), machine.IdealSuperscalar(8), machine.Superpipelined(8), machine.CRAY1(),
		machine.IdealSuperscalar(2), machine.Superpipelined(3),
		machine.SuperpipelinedSuperscalar(2, 2),
		machine.SuperscalarWithConflicts(4),
		machine.VLIW(4),
		machine.MultiTitan(),
		machine.CRAY1Issue(4, true),
	}
	if testing.Short() {
		cfgs = cfgs[:4]
	}
	type front struct {
		b     benchmarks.Benchmark
		copts compiler.Options
	}
	var fronts []front
	for _, b := range benchmarks.All() {
		for _, lvl := range []compiler.Level{compiler.O0, compiler.O4} {
			if lvl == compiler.O0 && testing.Short() {
				continue
			}
			fronts = append(fronts, front{b, compiler.Options{Level: lvl, Unroll: b.DefaultUnroll}})
		}
		if b.Name == "linpack" || b.Name == "livermore" {
			fronts = append(fronts, front{b, compiler.Options{Level: compiler.O4, Unroll: 4, Careful: true}})
		}
	}
	e := NewEngine()
	for _, f := range fronts {
		name := fmt.Sprintf("%s/%s/careful=%v", f.b.Name, f.copts.Level, f.copts.Careful)
		t.Run(name, func(t *testing.T) {
			copts := f.copts
			copts.Machine = cfgs[0]
			low, err := compiler.Lower(f.b.Source, copts)
			if err != nil {
				t.Fatalf("lower: %v", err)
			}
			var first *Path
			var firstRes *Result
			for _, cfg := range cfgs {
				for _, noSched := range []bool{false, true} {
					sc, err := low.Schedule(cfg, noSched)
					if err != nil {
						t.Fatalf("schedule for %s: %v", cfg.Name, err)
					}
					res := new(Result)
					path, err := recordPath(e, sc.Prog, Options{Machine: cfg}, res)
					if err != nil {
						t.Fatalf("record on %s: %v", cfg.Name, err)
					}
					if first == nil {
						first, firstRes = path, res
						if path.n == 0 {
							t.Fatalf("%s recorded no branch outcomes", cfg.Name)
						}
						continue
					}
					label := fmt.Sprintf("%s noSchedule=%v", cfg.Name, noSched)
					if !samePath(path, first) {
						t.Errorf("%s: path (%d outcomes, %d targets) differs from %s's (%d, %d)",
							label, path.n, len(path.targets), cfgs[0].Name, first.n, len(first.targets))
					}
					if res.Instructions != firstRes.Instructions || res.ClassCounts != firstRes.ClassCounts {
						t.Errorf("%s: %d instructions, mix %v; want %d, %v", label,
							res.Instructions, res.ClassCounts, firstRes.Instructions, firstRes.ClassCounts)
					}
				}
			}
		})
	}
}

// samePath reports whether p and q record the same control path and
// output.
func samePath(p, q *Path) bool {
	return p.n == q.n && p.instrs == q.instrs &&
		slices.Equal(p.bits, q.bits) && slices.Equal(p.targets, q.targets) && slices.Equal(p.output, q.output)
}

// loopPath records tightLoop(n) on the base machine.
func loopPath(t *testing.T, n int64) (*isa.Program, *Path) {
	t.Helper()
	p := tightLoop(n)
	path, err := recordPath(NewEngine(), p, Options{Machine: machine.Base()}, new(Result))
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return p, path
}

// callPath records a program that calls a subroutine twice, so its path
// carries jr targets.
func callPath(t *testing.T) (*isa.Program, *Path) {
	t.Helper()
	b := isa.NewBuilder()
	b.Li(isa.R(10), 3)
	b.Call("sub")
	b.Call("sub")
	b.Print(isa.R(10))
	b.Halt()
	b.Label("sub")
	b.Imm(isa.OpAddi, isa.R(10), isa.R(10), 1)
	b.Ret()
	p := b.MustFinish()
	path, err := recordPath(NewEngine(), p, Options{Machine: machine.Base()}, new(Result))
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if len(path.targets) != 2 {
		t.Fatalf("recorded %d jr targets, want 2", len(path.targets))
	}
	return p, path
}

// clonePath copies a closed path's recording into a new, open path, which
// a test may damage before closing it.
func clonePath(p *Path) *Path {
	return &Path{bits: slices.Clone(p.bits), n: p.n, targets: slices.Clone(p.targets), output: p.output, instrs: p.instrs}
}

func TestWalkRejectsMismatchedPath(t *testing.T) {
	p, path := loopPath(t, 6000)
	cp, cpath := callPath(t)
	opts := Options{Machine: machine.IdealSuperscalar(4)}

	short := clonePath(path)
	short.n--
	short.bits[short.n>>6] &^= 1 << uint(short.n&63)
	extra := clonePath(path)
	extra.appendBits(1, 1)
	noTarget := clonePath(cpath)
	noTarget.targets = noTarget.targets[:1]
	extraTarget := clonePath(cpath)
	extraTarget.targets = append(extraTarget.targets, extraTarget.targets[0])
	for _, q := range []*Path{short, extra, noTarget, extraTarget} {
		q.Close(nil)
	}

	for _, tc := range []struct {
		name string
		p    *isa.Program
		path *Path
		want string
	}{
		{"truncated outcomes", p, short, "path ended"},
		{"outcome left over", p, extra, "left over"},
		{"truncated targets", cp, noTarget, "path ended"},
		{"target left over", cp, extraTarget, "left over"},
		{"other program", cp, path, "not recorded from"},
		{"no path", p, nil, "not recorded from"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := NewEngine().WalkIntoCtx(context.Background(), tc.p, tc.path, opts, new(Result))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("walk returned %v, want an error containing %q", err, tc.want)
			}
		})
	}
	// The undamaged paths still walk.
	for _, ok := range []struct {
		p    *isa.Program
		path *Path
	}{{p, path}, {cp, cpath}} {
		if err := NewEngine().WalkIntoCtx(context.Background(), ok.p, ok.path, opts, new(Result)); err != nil {
			t.Fatalf("intact path: %v", err)
		}
	}
}

func TestRecordAndWalkRejectCachesAndHooks(t *testing.T) {
	p, path := loopPath(t, 600)
	hook := Options{Machine: machine.Base(), OnIssue: func(int, *isa.Instr, int64, int64) {}}
	cached := Options{Machine: ss4Caches()}
	for _, opts := range []Options{hook, cached} {
		if _, err := recordPath(NewEngine(), p, opts, new(Result)); err == nil {
			t.Errorf("record on %s (hook %v) was not rejected", opts.Machine.Name, opts.OnIssue != nil)
		}
		if err := NewEngine().WalkIntoCtx(context.Background(), p, path, opts, new(Result)); err == nil {
			t.Errorf("walk on %s (hook %v) was not rejected", opts.Machine.Name, opts.OnIssue != nil)
		}
	}
}

// TestWalkInstructionLimit: a walk fails on MaxInstructions with runFast's
// error, at a poll inside the loop.
func TestWalkInstructionLimit(t *testing.T) {
	p, path := loopPath(t, 600000)
	for _, cfg := range []*machine.Config{machine.Base(), machine.IdealSuperscalar(4), machine.Superpipelined(4)} {
		opts := Options{Machine: cfg, MaxInstructions: 100000}
		_, want := Run(p, opts)
		got := NewEngine().WalkIntoCtx(context.Background(), p, path, opts, new(Result))
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: walk error %v, run error %v; want the same instruction-limit error", cfg.Name, got, want)
		}
	}
}

// lateCancel is a context that is already done but reports no error on its
// first Err call, so a walk passes its entry check and meets the
// cancellation at a poll inside the loop.
type lateCancel struct {
	context.Context
	done  chan struct{}
	calls atomic.Int32
}

func (c *lateCancel) Done() <-chan struct{} { return c.done }

func (c *lateCancel) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

func TestWalkCancelInsideLoop(t *testing.T) {
	p, path := loopPath(t, 600000)
	for _, cfg := range []*machine.Config{machine.Base(), machine.IdealSuperscalar(4)} {
		ctx := &lateCancel{Context: context.Background(), done: make(chan struct{})}
		close(ctx.done)
		err := NewEngine().WalkIntoCtx(ctx, p, path, Options{Machine: cfg}, new(Result))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: walk returned %v, want context.Canceled", cfg.Name, err)
		}
		if n := ctx.calls.Load(); n != 2 {
			t.Errorf("%s: Err called %d times, want 2 (entry check, then the poll)", cfg.Name, n)
		}
	}
}

// TestRecordingFailsWithRunError: a recording whose run fails returns the
// run's own error, and a walk of the path it closes fails with
// ErrRecordingFailed.
func TestRecordingFailsWithRunError(t *testing.T) {
	p := endlessLoop()
	opts := Options{Machine: machine.Base(), MaxInstructions: 1 << 18}
	_, want := Run(p, opts)
	path := NewPath(p)
	err := NewEngine().RecordIntoCtx(context.Background(), p, opts, new(Result), path)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("record returned %v, want %v", err, want)
	}
	path.Close(err)
	if err := NewEngine().WalkIntoCtx(context.Background(), p, path, opts, new(Result)); !errors.Is(err, ErrRecordingFailed) {
		t.Fatalf("walk of a failed recording returned %v, want ErrRecordingFailed", err)
	}
	if err := NewEngine().RecordIntoCtx(context.Background(), p, opts, new(Result), path); err == nil {
		t.Fatal("a second recording into one path was not rejected")
	}
}

// TestWalkFollowsOpenPath: walks that start on an open path, before its
// recording runs, follow the recording as it publishes, wait whenever they
// catch up, and end bit-identical to executing runs on their own machines,
// counts included. Run with -race -cpu 4.
func TestWalkFollowsOpenPath(t *testing.T) {
	cfgs := []*machine.Config{machine.Base(), machine.IdealSuperscalar(4), machine.Superpipelined(4), machine.CRAY1()}
	for _, name := range []string{"yacc", "whet"} {
		t.Run(name, func(t *testing.T) {
			b, err := benchmarks.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			low, err := compiler.Lower(b.Source, compiler.Options{Level: compiler.O4, Unroll: b.DefaultUnroll, Machine: cfgs[0]})
			if err != nil {
				t.Fatalf("lower: %v", err)
			}
			progs := make([]*isa.Program, len(cfgs))
			opts := make([]Options, len(cfgs))
			for i, cfg := range cfgs {
				sc, err := low.Schedule(cfg, false)
				if err != nil {
					t.Fatalf("schedule for %s: %v", cfg.Name, err)
				}
				progs[i] = sc.Prog
				opts[i] = Options{Machine: cfg, Code: specialized(t, sc.Prog, cfg), CountInstrs: true}
			}
			path := NewPath(progs[0])
			got := make([]*Result, len(cfgs))
			errs := make([]error, len(cfgs))
			var wg sync.WaitGroup
			for i := 1; i < len(cfgs); i++ {
				got[i] = new(Result)
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = NewEngine().WalkIntoCtx(context.Background(), progs[i], path, opts[i], got[i])
				}()
			}
			got[0] = new(Result)
			err = NewEngine().RecordIntoCtx(context.Background(), progs[0], opts[0], got[0], path)
			path.Close(err)
			wg.Wait()
			errs[0] = err
			for i, cfg := range cfgs {
				if errs[i] != nil {
					t.Fatalf("%s: %v", cfg.Name, errs[i])
				}
				want := runChecked(t, NewEngine(), "fast "+cfg.Name, progs[i], opts[i])
				compareResults(t, cfg.Name, want, got[i])
				compareCounts(t, cfg.Name, want, got[i])
			}
		})
	}
}

// TestWalkOpenPathCancelAndFailure: a walk waiting on an open path returns
// its context's error when cancelled, and a walk following a recording
// that fails returns ErrRecordingFailed.
func TestWalkOpenPathCancelAndFailure(t *testing.T) {
	p := tightLoop(600000)
	// waiting returns once the walk reporting to walkErr waits on path.
	waiting := func(path *Path, walkErr chan error) {
		t.Helper()
		for {
			path.mu.Lock()
			w := path.grown != nil
			path.mu.Unlock()
			if w {
				return
			}
			select {
			case err := <-walkErr:
				t.Fatalf("walk returned %v without waiting on the open path", err)
			case <-time.After(time.Millisecond):
			}
		}
	}

	path := NewPath(p)
	ctx, cancel := context.WithCancel(context.Background())
	walkErr := make(chan error, 1)
	go func() {
		walkErr <- NewEngine().WalkIntoCtx(ctx, p, path, Options{Machine: machine.Base()}, new(Result))
	}()
	waiting(path, walkErr)
	cancel()
	if err := <-walkErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled walk on an open path returned %v, want context.Canceled", err)
	}

	path = NewPath(p)
	go func() {
		walkErr <- NewEngine().WalkIntoCtx(context.Background(), p, path, Options{Machine: machine.IdealSuperscalar(4)}, new(Result))
	}()
	waiting(path, walkErr)
	err := NewEngine().RecordIntoCtx(context.Background(), p, Options{Machine: machine.Base(), MaxInstructions: 300000}, new(Result), path)
	if err == nil {
		t.Fatal("recording past its instruction limit succeeded")
	}
	path.Close(err)
	if err := <-walkErr; !errors.Is(err, ErrRecordingFailed) {
		t.Fatalf("walk following a failed recording returned %v, want ErrRecordingFailed", err)
	}
}

// TestPathAppendStraddlesWords checks appendBit, appendBits, appendRepeat
// and peek across word boundaries against a bit-at-a-time model.
func TestPathAppendStraddlesWords(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var p Path
	var model []bool
	for range 600 {
		n := int64(rng.Intn(65))
		v := rng.Uint64()
		if n < 64 {
			v &= 1<<uint(n) - 1
		}
		k := int64(1)
		switch rng.Intn(3) {
		case 0:
			p.appendBits(v, n)
		case 1:
			n, v = 1, v&1
			p.appendBit(v == 1)
		case 2:
			k = int64(rng.Intn(200))
			p.appendRepeat(v, n, k)
		}
		for range k {
			for i := int64(0); i < n; i++ {
				model = append(model, v>>uint(i)&1 != 0)
			}
		}
	}
	if p.n != int64(len(model)) {
		t.Fatalf("%d bits recorded, want %d", p.n, len(model))
	}
	for pos := int64(0); pos < p.n; pos += int64(rng.Intn(40) + 1) {
		w := peek(p.bits, pos)
		for i := int64(0); i < 64 && pos+i < p.n; i++ {
			if got := w>>uint(i)&1 != 0; got != model[pos+i] {
				t.Fatalf("bit %d: got %v, want %v", pos+i, got, model[pos+i])
			}
		}
	}
}
