package experiments

import (
	"context"

	"fmt"
	"strings"

	"ilp/internal/compiler"
	"ilp/internal/machine"
	"ilp/internal/metrics"
)

func init() {
	register("fig4-6", "Figure 4-6: parallelism vs. loop unrolling", runFig46)
	register("fig4-7", "Figure 4-7: parallelism vs. compiler optimizations (expression graphs)", runFig47)
	register("fig4-8", "Figure 4-8: effect of optimization on parallelism", runFig48)
}

// conf is one compiled configuration of a benchmark: what parallelismOf
// measures on a base and a wide machine.
type conf struct {
	bench string
	copts compiler.Options
}

// parallelismOf measures each configuration's available parallelism: its
// base-machine cycles divided by its ideal superscalar MaxDegree cycles,
// both compiled for the machine they run on. Every cell resolves in one
// measureMany.
func (r *Runner) parallelismOf(ctx context.Context, confs []conf, wideTemps bool) ([]float64, error) {
	base := machine.Base()
	wide := machine.IdealSuperscalar(r.Cfg.maxDegree())
	if wideTemps {
		base.IntTemps, base.FPTemps = machine.WideTemps, machine.WideTemps
		base.IntHomes, base.FPHomes = 10, 10
		wide.IntTemps, wide.FPTemps = machine.WideTemps, machine.WideTemps
		wide.IntHomes, wide.FPHomes = 10, 10
	}
	jobs := make([]job, 0, 2*len(confs))
	for _, c := range confs {
		jobs = append(jobs, job{c.bench, c.copts, base}, job{c.bench, c.copts, wide})
	}
	res, err := r.measureMany(ctx, jobs)
	if err != nil {
		return nil, err
	}
	par := make([]float64, len(confs))
	for i := range par {
		par[i] = res[2*i].BaseCycles / res[2*i+1].BaseCycles
	}
	return par, nil
}

// runFig46 unrolls Linpack and Livermore 1, 2, 4 and 10 times, naively and
// carefully, and reports the available parallelism of each configuration.
// The paper used forty temporary registers here ("we have only forty
// temporary registers available, which limits the amount of parallelism").
func runFig46(ctx context.Context, r *Runner) (*Result, error) {
	factors := []int{1, 2, 4, 10}
	benches := []string{"linpack", "livermore"}
	kinds := []bool{false, true} // naive, careful

	var confs []conf
	for _, bench := range benches {
		for _, careful := range kinds {
			for _, k := range factors {
				confs = append(confs, conf{bench, compiler.Options{Level: compiler.O4, Unroll: k, Careful: careful}})
			}
		}
	}
	pars, err := r.parallelismOf(ctx, confs, true)
	if err != nil {
		return nil, err
	}

	// The table walks the configurations in the order confs lists them.
	var series []metrics.Series
	t := &table{header: []string{"configuration", "x1", "x2", "x4", "x10"}}
	for _, bench := range benches {
		for _, careful := range kinds {
			kind := "naive"
			if careful {
				kind = "careful"
			}
			s := metrics.Series{Name: fmt.Sprintf("%s.%s", bench, kind)}
			row := []string{s.Name}
			for _, k := range factors {
				par := pars[0]
				pars = pars[1:]
				s.X = append(s.X, float64(k))
				s.Y = append(s.Y, par)
				row = append(row, fmtF(par))
			}
			series = append(series, s)
			t.add(row...)
		}
	}
	var b strings.Builder
	b.WriteString("Available parallelism vs. unroll factor (40 temporary registers, like §4.4):\n\n")
	b.WriteString(t.render())
	b.WriteString("\nPaper shape: 'the parallelism improvement from naive unrolling is mostly flat\n" +
		"after unrolling by four ... careful unrolling gives us a more dramatic improvement,\n" +
		"but the parallelism available is still limited even for tenfold unrolling.'\n")
	return &Result{ID: "fig4-6", Title: "Parallelism vs. loop unrolling", Text: b.String(),
		Series: series}, nil
}

// runFig47 reproduces the expression-graph argument analytically: the three
// graphs of Figure 4-7 with parallelism 1.67, 1.33, and 1.50 show that
// optimizing a side branch reduces parallelism while optimizing a
// bottleneck increases it.
func runFig47(ctx context.Context, r *Runner) (*Result, error) {
	// Left graph: two independent 2-op branches feeding a combining op:
	// 5 ops, critical path 3 -> 5/3.
	left := metrics.NewExprDAG()
	a1 := left.Node()
	a2 := left.Node(a1)
	b1 := left.Node()
	b2 := left.Node(b1)
	left.Node(a2, b2)

	// Middle: one branch optimized to a single op: 4 ops, path 3 -> 4/3.
	mid := metrics.NewExprDAG()
	m1 := mid.Node()
	m2 := mid.Node(m1)
	n1 := mid.Node()
	mid.Node(m2, n1)

	// Right: the bottleneck optimized instead: both branches 2 ops, the
	// combining chain shortened: 6 ops, path 4 -> 1.5 (the paper's third
	// graph has parallelism 1.50).
	right := metrics.NewExprDAG()
	r1 := right.Node()
	r2 := right.Node(r1)
	s1 := right.Node()
	s2 := right.Node(s1)
	j1 := right.Node(r2, s2)
	right.Node(j1)

	t := &table{header: []string{"graph", "operations", "critical path", "parallelism"}}
	vals := make([]float64, 3)
	for i, g := range []*metrics.ExprDAG{left, mid, right} {
		names := []string{"original (1.67)", "side branch optimized (1.33)", "bottleneck chain kept (1.50)"}
		vals[i] = g.Parallelism()
		t.add(names[i], fmtI(g.Ops()), fmtI(g.CriticalPath()), fmtF(vals[i]))
	}
	var b strings.Builder
	b.WriteString(t.render())
	b.WriteString("\n'If our computation consists of two branches of comparable complexity that can\n" +
		"be executed in parallel, then optimizing one branch reduces the parallelism. On\n" +
		"the other hand, if the computation contains a bottleneck on which other operations\n" +
		"wait, then optimizing the bottleneck increases the parallelism.' (§4.4)\n")
	return &Result{ID: "fig4-7", Title: "Parallelism vs. compiler optimizations", Text: b.String(),
		Series: []metrics.Series{{Name: "parallelism", X: []float64{0, 1, 2}, Y: vals}}}, nil
}

// runFig48 measures available parallelism at the five cumulative
// optimization levels, per benchmark.
func runFig48(ctx context.Context, r *Runner) (*Result, error) {
	suite, err := r.Cfg.suite()
	if err != nil {
		return nil, err
	}
	levels := []compiler.Level{compiler.O0, compiler.O1, compiler.O2, compiler.O3, compiler.O4}

	var confs []conf
	for _, b := range suite {
		for _, lvl := range levels {
			confs = append(confs, conf{b.Name, compiler.Options{Level: lvl, Unroll: b.DefaultUnroll}})
		}
	}
	pars, err := r.parallelismOf(ctx, confs, false)
	if err != nil {
		return nil, err
	}

	header := []string{"benchmark", "none", "+sched", "+local", "+global", "+regalloc"}
	t := &table{header: header}
	var series []metrics.Series
	for bi, b := range suite {
		s := metrics.Series{Name: b.Name}
		row := []string{b.Name}
		for i := range levels {
			par := pars[bi*len(levels)+i]
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, par)
			row = append(row, fmtF(par))
		}
		series = append(series, s)
		t.add(row...)
	}
	var buf strings.Builder
	buf.WriteString("Available parallelism at cumulative optimization levels (§4.4, Figure 4-8):\n\n")
	buf.WriteString(t.render())
	buf.WriteString("\nPaper shape: 'doing pipeline scheduling can increase the available parallelism\n" +
		"by 10% to 60%'; classical optimization has little net effect on parallelism (it\n" +
		"often removes the useless computations that made unoptimized parallelism look\n" +
		"artificially high); global register allocation slightly decreases parallelism for\n" +
		"most programs but increases it for the numeric ones, whose scalar loads stop\n" +
		"looking dependent on array stores.\n")
	return &Result{ID: "fig4-8", Title: "Effect of optimization on parallelism", Text: buf.String(),
		Series: series}, nil
}
