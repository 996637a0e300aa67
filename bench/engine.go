package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"ilp/internal/benchmarks"
	"ilp/internal/cache"
	"ilp/internal/compiler"
	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/sim"
	"ilp/internal/statictime"
)

// role is a machine of the sim-engine workload under its metric name.
type role struct {
	name string
	m    *machine.Config
}

// engineMachines are the sim-engine machines. They route cells through
// different engine tiers: the caches machine takes the instrumented path,
// the superpipelined one long latencies, the superscalar one wide issue.
func engineMachines() []role {
	caches := machine.MultiTitan()
	caches.Name = "MultiTitan+caches"
	caches.ICache = &cache.Config{Name: "I", Lines: 256, LineWords: 4, MissPenalty: 12}
	caches.DCache = &cache.Config{Name: "D", Lines: 256, LineWords: 4, MissPenalty: 12}
	ms := []*machine.Config{machine.Base(), machine.IdealSuperscalar(8), machine.Superpipelined(8),
		machine.CRAY1(), machine.MultiTitan(), caches}
	roles := make([]role, len(ms))
	for i, m := range ms {
		roles[i] = role{engineRoles[i], m}
	}
	return roles
}

// suite is cfg's benchmarks.
func suite(cfg config) ([]benchmarks.Benchmark, error) {
	if cfg.benches == nil {
		return benchmarks.All(), nil
	}
	var out []benchmarks.Benchmark
	for _, name := range cfg.benches {
		b, err := benchmarks.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// cell is one prepared simulation: a benchmark compiled and predecoded for a
// machine.
type cell struct {
	bench, role string
	m           *machine.Config
	prog        *isa.Program
	code        *sim.Code
}

func (c cell) key() string { return c.bench + " " + c.role }

// prepare compiles a program for m and prepares it as the runner does:
// predecode, a profiling pre-run, and trace specialization when the
// profile finds conditional traces.
func prepare(ctx context.Context, tr *tracer, parent int, src string, copts compiler.Options, span string) (*isa.Program, *sim.Code, error) {
	var (
		c    *compiler.Compiled
		code *sim.Code
		prof *statictime.Profile
		err  error
	)
	tr.do(parent, span, func() { c, err = compiler.Compile(src, copts) })
	if err != nil {
		return nil, nil, err
	}
	tr.do(parent, "sim.predecode", func() { code, err = sim.Predecode(c.Prog, copts.Machine) })
	if err != nil {
		return nil, nil, err
	}
	tr.do(parent, "sim.profile", func() { prof, err = sim.ProfileRun(ctx, code, 0, 0) })
	if err != nil {
		return nil, nil, err
	}
	var spec *sim.Code
	tr.do(parent, "sim.specialize", func() { spec = code.Specialize(prof) })
	if spec.CondTraces() > 0 {
		code = spec
	}
	tr.count("sim.superblocks", float64(code.Superblocks()))
	tr.count("sim.cond_traces", float64(code.CondTraces()))
	return c.Prog, code, nil
}

// engineCells prepares every benchmark of cfg on every engine machine,
// sharing one compile among machines with the same schedule, as the runner
// does.
func engineCells(ctx context.Context, tr *tracer, cfg config) ([]cell, error) {
	bs, err := suite(cfg)
	if err != nil {
		return nil, err
	}
	var cells []cell
	for _, b := range bs {
		byFP := map[string]cell{}
		for _, ro := range engineMachines() {
			c, ok := byFP[ro.m.ScheduleFingerprint()]
			if !ok {
				copts := compiler.Options{Machine: ro.m, Level: compiler.O4, Unroll: b.DefaultUnroll}
				c.prog, c.code, err = prepare(ctx, tr, -1, b.Source, copts, "compiler.O4")
				if err != nil {
					return nil, fmt.Errorf("%s on %s: %w", b.Name, ro.m.Name, err)
				}
				byFP[ro.m.ScheduleFingerprint()] = c
			}
			cells = append(cells, cell{bench: b.Name, role: ro.name, m: ro.m, prog: c.prog, code: c.code})
		}
	}
	return cells, nil
}

// resultDigest identifies a simulation result: every field, hashed.
func resultDigest(res *sim.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// pass is one sim-engine round: results in the round's cell order.
type pass struct {
	serial, batch []*sim.Result
	serr, berr    []error
	lat           []float64 // serial cell runs, ms
	instr         int64     // instructions of the serial runs
	serialTime    time.Duration
}

// clock runs f and returns how long it took.
func clock(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// enginePass simulates cells in order one by one with sim.RunCtx, then all
// together through batch. timed wraps each of the two passes.
func enginePass(ctx context.Context, tr *tracer, cells []cell, order []int, batch *sim.Batch, timed func(func()) time.Duration) pass {
	n := len(order)
	p := pass{serial: make([]*sim.Result, n), serr: make([]error, n)}
	p.serialTime = timed(func() {
		for k, i := range order {
			c := cells[i]
			sp := tr.begin(-1, "sim.run."+c.role)
			t := time.Now()
			p.serial[k], p.serr[k] = sim.RunCtx(ctx, c.prog, sim.Options{Machine: c.m, Code: c.code})
			p.lat = append(p.lat, millis(time.Since(t)))
			tr.end(sp)
			if p.serr[k] == nil {
				p.instr += p.serial[k].Instructions
				tr.count("sim.run."+c.role+".instructions", float64(p.serial[k].Instructions))
			}
		}
	})
	tr.count("sim.instructions", float64(p.instr))

	runs := make([]sim.BatchRun, n)
	for k, i := range order {
		runs[k] = sim.BatchRun{Prog: cells[i].prog, Opts: sim.Options{Machine: cells[i].m, Code: cells[i].code}}
	}
	timed(func() {
		sp := tr.begin(-1, "sim.batch")
		p.batch, p.berr = batch.Run(ctx, runs)
		tr.end(sp)
	})
	tr.count("sim.batch.shards", float64(batch.Shards()))
	tr.count("sim.batch.mispaths", float64(batch.Mispaths()))
	tr.count("sim.batch.replays", float64(batch.Replays()))
	return p
}

// simEngine times the engine alone. Set-up compiles and prepares every
// cell; each round then simulates the cells one by one with sim.RunCtx and
// again all together through a two-worker sim.Batch. minstr_s is the serial
// passes' rate; p50_ms and tail_ms are over the serial cell runs.
func simEngine(ctx context.Context, r *run) error {
	var cells []cell
	for r.moreSetups() {
		err := r.setup(func() (err error) {
			cells, err = engineCells(ctx, r.tr, r.cfg)
			return err
		})
		if err != nil {
			return err
		}
	}
	want, err := readDigest(r.cfg, "sim-engine")
	if err != nil {
		return err
	}
	order := rand.New(rand.NewSource(r.cfg.seed)).Perm(len(cells))
	batch := sim.NewBatchWorkers(workers)
	// One untimed round allocates the pooled engines and the batch's engine
	// slab, one-time costs that would otherwise all land in round one.
	enginePass(ctx, nil, cells, order, batch, clock)
	got := map[string]string{}
	err = r.loop(func(int) error {
		p := enginePass(ctx, r.tr, cells, order, batch, r.timed)
		r.cur.lat = p.lat
		r.instr += p.instr
		r.simSecs += p.serialTime.Seconds()
		for k, i := range order {
			c := cells[i]
			if p.serr[k] != nil {
				r.op(false, "serial %s: %v", c.key(), p.serr[k])
			} else {
				got[c.key()] = resultDigest(p.serial[k])
				r.op(r.cfg.record || got[c.key()] == want[c.key()], "serial %s: result differs from testdata/sim-engine.digest", c.key())
			}
			if p.berr[k] != nil {
				r.op(false, "batch %s: %v", c.key(), p.berr[k])
			} else {
				r.op(p.serr[k] == nil && reflect.DeepEqual(p.batch[k], p.serial[k]), "batch %s: result differs from the serial run", c.key())
			}
		}
		return nil
	})
	if err != nil || !r.cfg.record {
		return err
	}
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.key()
	}
	return writeDigest(r.cfg, "sim-engine", keys, got)
}
