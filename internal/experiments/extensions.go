package experiments

import (
	"context"

	"fmt"
	"strings"

	"ilp/internal/cache"
	"ilp/internal/compiler"
	"ilp/internal/machine"
	"ilp/internal/metrics"
)

// Extensions: claims the paper makes in prose but does not plot. Each is
// registered like a figure so cmd/ilpbench and the bench harness cover it.

func init() {
	register("ext-conflicts", "Extension: class conflicts (§2.3.2 second design)", runExtConflicts)
	register("ext-vliw", "Extension: VLIW code density (§2.3.1)", runExtVLIW)
	register("ext-icache", "Extension: unrolling vs. limited instruction caches (§4.4)", runExtICache)
}

// runExtConflicts compares the two ways of §2.3.2 to build a superscalar:
// duplicate everything (ideal) vs. duplicate only decode (class conflicts).
// "Class conflicts can substantially reduce the parallelism exploitable by
// a superscalar machine."
func runExtConflicts(ctx context.Context, r *Runner) (*Result, error) {
	suite, err := r.Cfg.suite()
	if err != nil {
		return nil, err
	}
	deg := r.Cfg.maxDegree()
	if deg > 4 {
		deg = 4
	}
	base, mIdeal, mConflict := machine.Base(), machine.IdealSuperscalar(deg), machine.SuperscalarWithConflicts(deg)
	jobs := make([]job, 0, 3*len(suite))
	for _, b := range suite {
		jobs = append(jobs, job{b.Name, defaultOpts(b), base},
			job{b.Name, defaultOpts(b), mIdeal}, job{b.Name, defaultOpts(b), mConflict})
	}
	res, err := r.measureMany(ctx, jobs)
	if err != nil {
		return nil, err
	}

	t := &table{header: []string{"benchmark", "ideal (all units duplicated)", "conflicts (single units)", "lost"}}
	var ideal, conflict []float64
	for i, b := range suite {
		rb, ri, rc := res[3*i], res[3*i+1], res[3*i+2]
		si := rb.BaseCycles / ri.BaseCycles
		sc := rb.BaseCycles / rc.BaseCycles
		ideal = append(ideal, si)
		conflict = append(conflict, sc)
		t.add(b.Name, fmtF(si), fmtF(sc), fmt.Sprintf("%.0f%%", (1-sc/si)*100))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Speedup over the base machine at issue width %d (§2.3.2's two designs):\n\n", deg)
	b.WriteString(t.render())
	fmt.Fprintf(&b, "\nHarmonic means: ideal %.2f, with class conflicts %.2f.\n",
		metrics.HarmonicMean(ideal), metrics.HarmonicMean(conflict))
	b.WriteString("'If all the functional units are not duplicated, then potential class conflicts\n" +
		"will be created ... class conflicts can substantially reduce the parallelism.'\n")
	return &Result{ID: "ext-conflicts", Title: "Class conflicts", Text: b.String(),
		Series: []metrics.Series{
			{Name: "ideal", X: seq(len(ideal)), Y: ideal},
			{Name: "conflicts", X: seq(len(conflict)), Y: conflict},
		}}, nil
}

// runExtVLIW quantifies §2.3.1's second superscalar/VLIW difference: "when
// the available instruction-level parallelism is less than that exploitable
// by the VLIW machine, the code density of the superscalar machine will be
// better", because the fixed VLIW format carries bits for unused operation
// slots. We measure it dynamically: a VLIW spends a full width-n word per
// issue group, the superscalar one word per instruction.
func runExtVLIW(ctx context.Context, r *Runner) (*Result, error) {
	suite, err := r.Cfg.suite()
	if err != nil {
		return nil, err
	}
	deg := r.Cfg.maxDegree()
	if deg > 4 {
		deg = 4
	}
	vliw := machine.VLIW(deg)
	jobs := make([]job, len(suite))
	for i, b := range suite {
		jobs[i] = job{b.Name, defaultOpts(b), vliw}
	}
	results, err := r.measureMany(ctx, jobs)
	if err != nil {
		return nil, err
	}

	t := &table{header: []string{"benchmark", "instr words (superscalar)", "op slots (VLIW)", "slot utilization", "density cost"}}
	var utils []float64
	for i, b := range suite {
		res := results[i]
		vliwWords := machine.VLIWCodeWords(res.IssueGroups, deg)
		util := float64(res.Instructions) / float64(vliwWords)
		utils = append(utils, util)
		t.add(b.Name,
			fmtI(int(res.Instructions)),
			fmtI(int(vliwWords)),
			fmt.Sprintf("%.0f%%", util*100),
			fmt.Sprintf("%.2fx", 1/util))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Dynamic code-stream density at VLIW width %d:\n\n", deg)
	b.WriteString(t.render())
	fmt.Fprintf(&b, "\nMean slot utilization %.0f%%: with available parallelism around 2 and width %d,\n",
		metrics.ArithmeticMean(utils)*100, deg)
	b.WriteString("most VLIW operation slots encode no-ops — the paper's code-density argument for\n" +
		"the superscalar encoding (timing is identical by construction, §2.3.1).\n")
	return &Result{ID: "ext-vliw", Title: "VLIW code density", Text: b.String(),
		Series: []metrics.Series{{Name: "slot-utilization", X: seq(len(utils)), Y: utils}}}, nil
}

// runExtICache checks §4.4's warning: "if limited instruction caches were
// present, the actual performance would decline for large degrees of
// unrolling."
func runExtICache(ctx context.Context, r *Runner) (*Result, error) {
	factors := []int{1, 2, 4, 10}
	mk := func(withCache bool) *machine.Config {
		m := machine.IdealSuperscalar(r.Cfg.maxDegree())
		m.IntTemps, m.FPTemps = machine.WideTemps, machine.WideTemps
		m.IntHomes, m.FPHomes = 10, 10
		if withCache {
			// Small enough that a 10x-unrolled loop body spills out.
			m.ICache = &cache.Config{Name: "I", Lines: 64, LineWords: 4, MissPenalty: 16}
			m.Name += "-icache"
		}
		return m
	}
	kinds := []bool{false, true} // perfect, limited instruction cache

	// Per machine: the unrolled-1x reference, then one cell per factor.
	var jobs []job
	for _, cached := range kinds {
		m := mk(cached)
		jobs = append(jobs, job{"linpack", compiler.Options{Level: compiler.O4, Unroll: 1, Careful: true}, m})
		for _, k := range factors {
			jobs = append(jobs, job{"linpack", compiler.Options{Level: compiler.O4, Unroll: k, Careful: true}, m})
		}
	}
	results, err := r.measureMany(ctx, jobs)
	if err != nil {
		return nil, err
	}

	t := &table{header: []string{"configuration", "x1", "x2", "x4", "x10"}}
	var series []metrics.Series
	for ci, cached := range kinds {
		name := "linpack.perfect-icache"
		if cached {
			name = "linpack.1KB-icache"
		}
		s := metrics.Series{Name: name}
		row := []string{name}
		cells := results[ci*(1+len(factors)):]
		base := cells[0]
		for ki, k := range factors {
			res := cells[1+ki]
			sp := base.BaseCycles / res.BaseCycles
			s.X = append(s.X, float64(k))
			s.Y = append(s.Y, sp)
			row = append(row, fmtF(sp))
		}
		series = append(series, s)
		t.add(row...)
	}
	var b strings.Builder
	b.WriteString("Speedup from careful unrolling, relative to the unrolled-1x configuration on\nthe same machine:\n\n")
	b.WriteString(t.render())
	b.WriteString("\n'In all cases, cache effects were ignored. If limited instruction caches were\n" +
		"present, the actual performance would decline for large degrees of unrolling.'\n" +
		"(§4.4) — the unrolled loop body outgrows the 1 KB instruction cache and the miss\n" +
		"penalty eats the parallelism gain.\n")
	return &Result{ID: "ext-icache", Title: "Unrolling vs. limited instruction caches", Text: b.String(),
		Series: series}, nil
}
