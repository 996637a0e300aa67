package experiments

import (
	"context"
	"fmt"
	"strings"

	"ilp/internal/machine"
	"ilp/internal/metrics"
	"ilp/internal/sim"
	"ilp/internal/trace"
)

func init() {
	register("ext-limits", "Extension: trace-driven parallelism limits ([14], [15] vs. this paper)", runExtLimits)
}

// runExtLimits situates the paper's compile-time result between the two
// classical trace-study extremes it cites in §4.2: the branch-inhibited
// limit of Riseman & Foster (≈2, matching "average instruction-level
// parallelism of around 2") and the perfect-prediction oracle (an order of
// magnitude higher).
func runExtLimits(ctx context.Context, r *Runner) (*Result, error) {
	suite, err := r.Cfg.suite()
	if err != nil {
		return nil, err
	}

	// Compiled, machine-level parallelism (the paper's metric).
	base, wide := machine.Base(), machine.IdealSuperscalar(r.Cfg.maxDegree())
	jobs := make([]job, 0, 2*len(suite))
	for _, b := range suite {
		jobs = append(jobs, job{b.Name, defaultOpts(b), base}, job{b.Name, defaultOpts(b), wide})
	}
	res, err := r.measureMany(ctx, jobs)
	if err != nil {
		return nil, err
	}

	// Trace limits on the same base-machine binaries, whose compilations
	// the measurement just cached.
	cells := make([]job, len(suite))
	for i := range cells {
		cells[i] = jobs[2*i]
	}
	lims := make([]*trace.Limits, len(suite))
	err = r.runCells(ctx, cells, func(ctx context.Context, _ *sim.Engine, i int) error {
		j := cells[i]
		c, err := r.compile(ctx, j.bench, j.copts, j.m, compileKey(j.bench, j.copts, j.m))
		if err != nil {
			return err
		}
		if lims[i], err = trace.Analyze(c.prog, trace.Options{MaxTrace: 1_500_000}); err != nil {
			return r.simFailure(ctx, j.bench, j.m, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &table{header: []string{"benchmark", "compiled (this paper)", "blocked limit [14]", "oracle limit [14,15]"}}
	var compiled, blocked, oracle []float64
	for i, b := range suite {
		note := ""
		if lims[i].Truncated {
			note = "*"
		}
		c := res[2*i].BaseCycles / res[2*i+1].BaseCycles
		bl, or := lims[i].BlockedParallelism(), lims[i].OracleParallelism()
		t.add(benchLabel(b)+note, fmtF(c), fmtF(bl), fmtF(or))
		compiled = append(compiled, c)
		blocked = append(blocked, bl)
		oracle = append(oracle, or)
	}
	var b strings.Builder
	b.WriteString("Three parallelism measures of the same binaries (* = trace truncated at 1.5M):\n\n")
	b.WriteString(t.render())
	fmt.Fprintf(&b, "\nHarmonic means: compiled %.2f, blocked trace limit %.2f, oracle %.1f.\n",
		metrics.HarmonicMean(compiled), metrics.HarmonicMean(blocked), metrics.HarmonicMean(oracle))
	b.WriteString("\nThe blocked limit (infinite width, unit latency, perfect renaming, exact memory\n" +
		"disambiguation — but no execution past an unresolved conditional branch) lands\n" +
		"near the ~2 the paper quotes from the classical studies; the perfect-prediction\n" +
		"oracle is an order of magnitude higher (Riseman & Foster's contrast). The\n" +
		"compiled machines sit at or below the blocked limit, as they must: a real\n" +
		"compiler, finite registers, and in-order issue only lose parallelism from there.\n")
	return &Result{ID: "ext-limits", Title: "Trace-driven parallelism limits", Text: b.String(),
		Series: []metrics.Series{
			{Name: "compiled", X: seq(len(compiled)), Y: compiled},
			{Name: "blocked", X: seq(len(blocked)), Y: blocked},
			{Name: "oracle", X: seq(len(oracle)), Y: oracle},
		}}, nil
}
