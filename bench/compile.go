package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ilp/internal/benchmarks"
	"ilp/internal/compiler"
	"ilp/internal/isa"
	"ilp/internal/lang/parser"
	"ilp/internal/lang/sem"
	"ilp/internal/machine"
	"ilp/internal/statictime"
	"ilp/internal/trace"
)

// variant is one compilation of the compile-matrix workload.
type variant struct {
	bench benchmarks.Benchmark
	level string // O0..O4, or careful
	role  string // machine
	copts compiler.Options
}

func (v variant) key() string { return v.bench.Name + " " + v.level + " " + v.role }

// matrixVariants are every benchmark at every optimization level for four
// machines, plus careful unrolling (§4.4) of linpack and livermore with
// forty temporaries, as Figure 4-6 compiles them.
func matrixVariants(bs []benchmarks.Benchmark) []variant {
	roles := []role{{"base", machine.Base()}, {"ss4", machine.IdealSuperscalar(4)},
		{"sp4", machine.Superpipelined(4)}, {"cray1", machine.CRAY1()}}
	wide := machine.Base()
	wide.IntTemps, wide.FPTemps = machine.WideTemps, machine.WideTemps
	wide.IntHomes, wide.FPHomes = 10, 10
	var vs []variant
	for _, b := range bs {
		for lvl := compiler.O0; lvl <= compiler.O4; lvl++ {
			for _, ro := range roles {
				vs = append(vs, variant{b, fmt.Sprintf("O%d", lvl), ro.name,
					compiler.Options{Machine: ro.m, Level: lvl, Unroll: b.DefaultUnroll}})
			}
		}
		if b.Name == "linpack" || b.Name == "livermore" {
			vs = append(vs, variant{b, "careful", "wide", compiler.Options{Machine: wide, Level: compiler.O4, Unroll: 4, Careful: true}})
		}
	}
	return vs
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// codeDigest hashes the machine code of p: every instruction, the data
// segment and the entry point. Branch labels are left out: the compiler
// numbers some blocks in map order, so identical code can carry different
// labels from one compile to the next.
func codeDigest(p *isa.Program) string {
	h := sha256.New()
	for _, in := range p.Instrs {
		sym := in.Sym
		if in.Op.Info().Branch {
			sym = ""
		}
		fmt.Fprintf(h, "%d %d %d %d %d %g %d %s\n", in.Op, in.Dst, in.Src1, in.Src2, in.Imm, in.FImm, in.Target, sym)
	}
	fmt.Fprintf(h, "%v %d %d\n", p.Data, p.Entry, p.StackTop)
	return hex.EncodeToString(h.Sum(nil))
}

// boundsDigest hashes a static timing analysis: each block's extent and
// bounds and each instruction's potential and gap, without block labels.
func boundsDigest(a *statictime.Analysis) string {
	var b strings.Builder
	for _, bl := range a.Blocks {
		fmt.Fprintf(&b, "%d %d %d %d %d %d %v %d\n", bl.Leader, bl.End, bl.DepHeight, bl.WidthBound, bl.UnitBound, bl.Span, bl.ConflictFree, bl.ExactSpan)
	}
	fmt.Fprintf(&b, "%v %v\n", a.Deltas, a.Gaps)
	return sha(b.String())
}

// frontend parses and type-checks src under a lang.frontend span.
func frontend(tr *tracer, parent int, src string) (err error) {
	tr.do(parent, "lang.frontend", func() {
		prog, perr := parser.Parse(src)
		if err = perr; err == nil {
			_, err = sem.Analyze(prog)
		}
	})
	return err
}

// analyses compiles b with every pass verified and runs both analyses on
// the result, returning the digest of each output and the instructions
// trace.Analyze simulated.
func analyses(tr *tracer, parent int, b benchmarks.Benchmark) (out map[string]string, instr int64, traceTime time.Duration, err error) {
	var c *compiler.Compiled
	tr.do(parent, "compiler.verify", func() {
		c, err = compiler.Compile(b.Source, compiler.Options{Level: compiler.O4, Unroll: b.DefaultUnroll, Verify: true})
	})
	if err != nil {
		return nil, 0, 0, err
	}
	var a *statictime.Analysis
	tr.do(parent, "statictime.analyze", func() { a, err = statictime.Analyze(c.Prog, machine.Base()) })
	if err != nil {
		return nil, 0, 0, err
	}
	var lim *trace.Limits
	t := time.Now()
	tr.do(parent, "trace.analyze", func() { lim, err = trace.Analyze(c.Prog, trace.Options{}) })
	traceTime = time.Since(t)
	if err != nil {
		return nil, 0, 0, err
	}
	return map[string]string{
		b.Name + " verify":     codeDigest(c.Prog),
		b.Name + " statictime": boundsDigest(a),
		b.Name + " trace":      sha(fmt.Sprintf("%d %d %d %v", lim.Instructions, lim.BlockedCycles, lim.OracleCycles, lim.Truncated)),
	}, lim.Instructions, traceTime, nil
}

// compileMatrix times the prepare path the sim-engine workload leaves in
// set-up: each variant goes Compile, Predecode, ProfileRun and Specialize,
// in a seed-drawn order, and each round also verifies and analyzes every
// benchmark. Set-up parses and type-checks every source. p50_ms and tail_ms
// are over variants; minstr_s is trace.Analyze's instrumented simulation.
func compileMatrix(ctx context.Context, r *run) error {
	bs, err := suite(r.cfg)
	if err != nil {
		return err
	}
	for r.moreSetups() {
		err := r.setup(func() error {
			for _, b := range bs {
				if err := frontend(r.tr, -1, b.Source); err != nil {
					return fmt.Errorf("%s: %w", b.Name, err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	want, err := readDigest(r.cfg, "compile-matrix")
	if err != nil {
		return err
	}
	vs := matrixVariants(bs)
	order := rand.New(rand.NewSource(r.cfg.seed)).Perm(len(vs))
	got := map[string]string{}
	check := func(key, digest string) {
		got[key] = digest
		r.op(r.cfg.record || digest == want[key], "%s: output differs from testdata/compile-matrix.digest", key)
	}
	err = r.loop(func(int) error {
		progs := make([]*isa.Program, len(vs))
		errs := make([]error, len(vs))
		r.timed(func() {
			for _, i := range order {
				t := time.Now()
				progs[i], _, errs[i] = prepare(ctx, r.tr, -1, vs[i].bench.Source, vs[i].copts, "compiler."+vs[i].level)
				r.cur.lat = append(r.cur.lat, millis(time.Since(t)))
			}
		})
		outs := make([]map[string]string, len(bs))
		aerrs := make([]error, len(bs))
		r.timed(func() {
			for i, b := range bs {
				var instr int64
				var d time.Duration
				outs[i], instr, d, aerrs[i] = analyses(r.tr, -1, b)
				r.instr += instr
				r.simSecs += d.Seconds()
			}
		})
		for i, v := range vs {
			if errs[i] != nil {
				r.op(false, "%s: %v", v.key(), errs[i])
				continue
			}
			check(v.key(), codeDigest(progs[i]))
		}
		for i, b := range bs {
			if aerrs[i] != nil {
				r.op(false, "%s analyses: %v", b.Name, aerrs[i])
				continue
			}
			for _, k := range []string{" verify", " statictime", " trace"} {
				check(b.Name+k, outs[i][b.Name+k])
			}
		}
		return nil
	})
	if err != nil || !r.cfg.record {
		return err
	}
	var keys []string
	for _, v := range vs {
		keys = append(keys, v.key())
	}
	for _, b := range bs {
		keys = append(keys, b.Name+" verify", b.Name+" statictime", b.Name+" trace")
	}
	return writeDigest(r.cfg, "compile-matrix", keys, got)
}
