package experiments

import (
	"context"

	"fmt"
	"strings"

	"ilp/internal/machine"
	"ilp/internal/metrics"
	"ilp/internal/pipeviz"
)

func init() {
	register("fig4-1", "Figure 4-1: supersymmetry — superscalar vs. superpipelined", runFig41)
	register("fig4-2", "Figure 4-2: start-up in superscalar vs. superpipelined", runFig42)
	register("fig4-3", "Figure 4-3: parallelism required for full utilization", runFig43)
	register("fig4-4", "Figure 4-4: CRAY-1 parallel issue with unit and real latencies", runFig44)
	register("fig4-5", "Figure 4-5: instruction-level parallelism by benchmark", runFig45)
}

// runFig41 sweeps ideal superscalar and superpipelined machines of degree 1
// to MaxDegree over the whole suite and plots the harmonic-mean speedup
// over the base machine — the supersymmetry result.
func runFig41(ctx context.Context, r *Runner) (*Result, error) {
	suite, err := r.Cfg.suite()
	if err != nil {
		return nil, err
	}
	maxDeg := r.Cfg.maxDegree()

	var jobs []job
	var meta []struct {
		kind string
		deg  int
	}
	for deg := 1; deg <= maxDeg; deg++ {
		for _, b := range suite {
			jobs = append(jobs, job{b.Name, defaultOpts(b), machine.IdealSuperscalar(deg)})
			meta = append(meta, struct {
				kind string
				deg  int
			}{"superscalar", deg})
			jobs = append(jobs, job{b.Name, defaultOpts(b), machine.Superpipelined(deg)})
			meta = append(meta, struct {
				kind string
				deg  int
			}{"superpipelined", deg})
		}
	}
	results, err := r.measureMany(ctx, jobs)
	if err != nil {
		return nil, err
	}

	// Base runs (degree 1 superscalar is the base machine).
	baseOf := map[string]float64{}
	for i, j := range jobs {
		if meta[i].kind == "superscalar" && meta[i].deg == 1 {
			baseOf[j.bench] = results[i].BaseCycles
		}
	}

	speedups := map[string]map[int][]float64{
		"superscalar":    {},
		"superpipelined": {},
	}
	for i := range jobs {
		k, d := meta[i].kind, meta[i].deg
		speedups[k][d] = append(speedups[k][d], baseOf[jobs[i].bench]/results[i].BaseCycles)
	}

	ss := metrics.Series{Name: "superscalar"}
	sp := metrics.Series{Name: "superpipelined"}
	t := &table{header: []string{"degree", "superscalar (HM speedup)", "superpipelined (HM speedup)"}}
	for deg := 1; deg <= maxDeg; deg++ {
		hs := metrics.HarmonicMean(speedups["superscalar"][deg])
		hp := metrics.HarmonicMean(speedups["superpipelined"][deg])
		ss.X = append(ss.X, float64(deg))
		ss.Y = append(ss.Y, hs)
		sp.X = append(sp.X, float64(deg))
		sp.Y = append(sp.Y, hp)
		t.add(fmtI(deg), fmtF(hs), fmtF(hp))
	}

	var b strings.Builder
	b.WriteString(t.render())
	b.WriteString("\nPaper shape: superscalar >= superpipelined at equal degree (startup transient),\n" +
		"difference < ~10% and shrinking with degree; both curves flatten near the available\n" +
		"parallelism (~2) because most benchmarks have little instruction-level parallelism.\n")
	return &Result{ID: "fig4-1", Title: "Supersymmetry", Text: b.String(),
		Series: []metrics.Series{ss, sp}}, nil
}

func runFig42(ctx context.Context, r *Runner) (*Result, error) {
	d := pipeviz.Startup(3, 6)
	text := d.Render() +
		"\nThe superscalar machine issues the last of six independent instructions during base\n" +
		"cycle 1; the superpipelined machine does not issue it until t=5/3, so it falls behind\n" +
		"at the start of the program and at each branch target (§4.1).\n"
	return &Result{ID: "fig4-2", Title: "Start-up in superscalar vs. superpipelined", Text: text}, nil
}

// runFig43 prints the n*m grid of Figure 4-3 and marks the MultiTitan and
// CRAY-1 on the superpipelining axis using their measured average degrees.
func runFig43(ctx context.Context, r *Runner) (*Result, error) {
	t := &table{header: []string{"cycles/op (m)", "n=1", "n=2", "n=3", "n=4", "n=5"}}
	for m := 5; m >= 1; m-- {
		row := []string{fmtI(m)}
		for n := 1; n <= 5; n++ {
			row = append(row, fmtI(n*m))
		}
		t.add(row...)
	}
	var b strings.Builder
	b.WriteString("Instruction-level parallelism required to fully utilize a superpipelined\n")
	b.WriteString("superscalar machine of degree (n, m): n*m (§2.5, Figure 4-3).\n\n")
	b.WriteString(t.render())
	b.WriteString("\nOn the superpipelining (m) axis: MultiTitan sits at ~1.7, the CRAY-1 at ~4.4\n")
	b.WriteString("(Table 2-1), so the CRAY-1 would need instruction-level parallelism above 4\n")
	b.WriteString("before parallel issue of even two instructions per cycle could be justified.\n")
	return &Result{ID: "fig4-3", Title: "Parallelism required for full utilization", Text: b.String()}, nil
}

// runFig44 reproduces the CRAY-1 study: issue multiplicity 1..MaxDegree,
// once with all functional-unit latencies forced to one (the flawed
// methodology the paper criticizes) and once with actual latencies.
func runFig44(ctx context.Context, r *Runner) (*Result, error) {
	suite, err := r.Cfg.suite()
	if err != nil {
		return nil, err
	}
	maxDeg := r.Cfg.maxDegree()

	kinds := []bool{true, false} // unit latencies, actual latencies
	var jobs []job
	type m struct {
		unit bool
		deg  int
	}
	var meta []m
	for _, unit := range kinds {
		for deg := 1; deg <= maxDeg; deg++ {
			for _, b := range suite {
				jobs = append(jobs, job{b.Name, defaultOpts(b), machine.CRAY1Issue(deg, unit)})
				meta = append(meta, m{unit, deg})
			}
		}
	}
	results, err := r.measureMany(ctx, jobs)
	if err != nil {
		return nil, err
	}

	base := map[m]map[string]float64{}
	for i := range jobs {
		key := m{meta[i].unit, 1}
		if meta[i].deg == 1 {
			if base[key] == nil {
				base[key] = map[string]float64{}
			}
			base[key][jobs[i].bench] = results[i].BaseCycles
		}
	}
	sp := map[m][]float64{}
	for i := range jobs {
		b0 := base[m{meta[i].unit, 1}][jobs[i].bench]
		sp[meta[i]] = append(sp[meta[i]], b0/results[i].BaseCycles)
	}

	unit := metrics.Series{Name: "all latencies = 1"}
	actual := metrics.Series{Name: "actual CRAY-1 latencies"}
	t := &table{header: []string{"issue multiplicity", "speedup (unit latencies)", "speedup (actual latencies)"}}
	for deg := 1; deg <= maxDeg; deg++ {
		u := metrics.HarmonicMean(sp[m{true, deg}])
		a := metrics.HarmonicMean(sp[m{false, deg}])
		unit.X = append(unit.X, float64(deg))
		unit.Y = append(unit.Y, u)
		actual.X = append(actual.X, float64(deg))
		actual.Y = append(actual.Y, a)
		t.add(fmtI(deg), fmtF(u), fmtF(a))
	}
	var b strings.Builder
	b.WriteString(t.render())
	b.WriteString("\nPaper shape: assuming one-cycle functional units predicts large speedups from\n" +
		"parallel issue (the paper cites up to 2.7 from [1]); with actual latencies the\n" +
		"CRAY-1 'already executes several instructions concurrently due to its average\n" +
		"degree of superpipelining of 4.4', and parallel issue gains almost nothing.\n")
	return &Result{ID: "fig4-4", Title: "Parallel issue with unit and real latencies", Text: b.String(),
		Series: []metrics.Series{unit, actual}}, nil
}

// runFig45 sweeps issue multiplicity per benchmark on ideal superscalar
// machines: the per-benchmark available parallelism.
func runFig45(ctx context.Context, r *Runner) (*Result, error) {
	suite, err := r.Cfg.suite()
	if err != nil {
		return nil, err
	}
	maxDeg := r.Cfg.maxDegree()

	var jobs []job
	type m struct {
		bench string
		deg   int
	}
	var meta []m
	for _, b := range suite {
		for deg := 1; deg <= maxDeg; deg++ {
			jobs = append(jobs, job{b.Name, defaultOpts(b), machine.IdealSuperscalar(deg)})
			meta = append(meta, m{b.Name, deg})
		}
	}
	results, err := r.measureMany(ctx, jobs)
	if err != nil {
		return nil, err
	}
	cycles := map[m]float64{}
	for i := range jobs {
		cycles[meta[i]] = results[i].BaseCycles
	}

	var series []metrics.Series
	header := []string{"benchmark"}
	for deg := 1; deg <= maxDeg; deg++ {
		header = append(header, fmt.Sprintf("x%d", deg))
	}
	t := &table{header: header}
	for _, b := range suite {
		s := metrics.Series{Name: benchLabel(b)}
		row := []string{benchLabel(b)}
		for deg := 1; deg <= maxDeg; deg++ {
			sp := cycles[m{b.Name, 1}] / cycles[m{b.Name, deg}]
			s.X = append(s.X, float64(deg))
			s.Y = append(s.Y, sp)
			row = append(row, fmtF(sp))
		}
		series = append(series, s)
		t.add(row...)
	}
	var buf strings.Builder
	buf.WriteString(t.render())
	buf.WriteString("\nPaper shape: yacc has the least parallelism (~1.6 after normal optimization);\n" +
		"many programs sit near 2 (ccom, grr, stanford, met, whet); livermore approaches\n" +
		"2.5; linpack with its official 4x unrolling reaches ~3.2. 'There is a factor of\n" +
		"two difference ... but the ceiling is still quite low.'\n")
	return &Result{ID: "fig4-5", Title: "Instruction-level parallelism by benchmark", Text: buf.String(),
		Series: series}, nil
}
