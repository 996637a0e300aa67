package experiments

import (
	"context"
	"fmt"
	"strings"

	"ilp/internal/machine"
	"ilp/internal/metrics"
	"ilp/internal/sim"
	"ilp/internal/statictime"
	"ilp/internal/verify"
)

func init() {
	register("ext-slack", "Extension: static timing bounds vs. simulation", runExtSlack)
}

// runExtSlack quantifies how tight the static timing analysis is: for every
// benchmark × machine cell it reports slack = simulated minor cycles ÷ the
// static lower bound (1.00 means the per-block dependence/width/unit bounds
// explain every cycle; larger means cross-block effects — inter-block
// dependences and branch-entry transients — the per-block analysis cannot
// see). Each cell is also pushed through the verify timing oracle, so a
// bound violation fails the experiment rather than printing a bogus ratio.
//
// The paper's thesis is that available parallelism is a static property of
// the compiled code and the machine; this table measures how much of the
// dynamic cycle count the static analysis already pins down.
func runExtSlack(ctx context.Context, r *Runner) (*Result, error) {
	suite, err := r.Cfg.suite()
	if err != nil {
		return nil, err
	}
	deg := r.Cfg.maxDegree()
	if deg > 4 {
		deg = 4
	}
	cfgs := []*machine.Config{
		machine.Base(),
		machine.IdealSuperscalar(deg),
		machine.Superpipelined(deg),
		machine.SuperscalarWithConflicts(deg),
		machine.MultiTitan(),
	}

	jobs := make([]job, 0, len(suite)*len(cfgs))
	for _, b := range suite {
		for _, m := range cfgs {
			jobs = append(jobs, job{b.Name, defaultOpts(b), m})
		}
	}
	ratios := make([]float64, len(jobs))
	err = r.runCells(ctx, jobs, func(ctx context.Context, e *sim.Engine, i int) error {
		j := jobs[i]
		c, err := r.compile(ctx, j.bench, j.copts, j.m, compileKey(j.bench, j.copts, j.m))
		if err != nil {
			return err
		}
		// Simulated directly on the slot's engine (not through the
		// measurement cache): the slack ratio needs the per-instruction
		// counts, which ordinary measurements do not carry.
		res := new(sim.Result)
		if err := e.RunIntoCtx(ctx, c.prog, sim.Options{
			Machine: j.m, Code: c.code, CountInstrs: true,
		}, res); err != nil {
			return r.simFailure(ctx, j.bench, j.m, err)
		}
		a, err := statictime.Analyze(c.prog, j.m)
		if err != nil {
			return fmt.Errorf("ext-slack: %s on %s: %w", j.bench, j.m.Name, err)
		}
		if ds := verify.CheckTiming(a, res.MinorCycles, res.InstrCounts, res.TakenExits, "ext-slack"); len(ds) > 0 {
			return fmt.Errorf("ext-slack: %s on %s: static timing oracle: %s", j.bench, j.m.Name, ds[0])
		}
		ratios[i] = float64(res.MinorCycles) / float64(a.LowerBound(res.InstrCounts, res.TakenExits))
		return nil
	})
	if err != nil {
		return nil, err
	}

	header := []string{"benchmark"}
	for _, m := range cfgs {
		header = append(header, m.Name)
	}
	t := &table{header: header}
	slack := make([][]float64, len(cfgs))
	for bi, b := range suite {
		row := []string{benchLabel(b)}
		for mi := range cfgs {
			s := ratios[bi*len(cfgs)+mi]
			slack[mi] = append(slack[mi], s)
			row = append(row, fmtF(s))
		}
		t.add(row...)
	}

	var b strings.Builder
	b.WriteString("Static-bound tightness: simulated minor cycles / static lower bound\n")
	b.WriteString("(1.00 = the per-block dependence, width and unit bounds explain every cycle):\n\n")
	b.WriteString(t.render())
	b.WriteString("\nMean slack: ")
	series := make([]metrics.Series, len(cfgs))
	for mi, m := range cfgs {
		if mi > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.2f", m.Name, metrics.ArithmeticMean(slack[mi]))
		series[mi] = metrics.Series{Name: m.Name, X: seq(len(slack[mi])), Y: slack[mi]}
	}
	b.WriteString(".\n")
	b.WriteString("Every cell passed the verify timing oracle (lower <= simulated <= upper);\n" +
		"slack above 1 is the cross-block timing the per-block static analysis cannot see.\n")
	return &Result{ID: "ext-slack", Title: "Static timing bounds", Text: b.String(), Series: series}, nil
}
