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

func init() {
	register("tab5-1", "Table 5-1: the cost of cache misses", runTab51)
	register("sec5-1", "§5.1: cache misses vs. parallel issue", runSec51)
}

// runTab51 reproduces the static Table 5-1 computation and augments it
// with a measured row: the benchmark suite run on a Titan-like machine
// with caches.
func runTab51(ctx context.Context, r *Runner) (*Result, error) {
	type rowDef struct {
		name    string
		cpi     float64
		cycleNS float64
		memNS   float64
	}
	rows := []rowDef{
		{"VAX 11/780", 10.0, 200, 1200},
		{"WRL Titan", 1.4, 45, 540},
		{"?", 0.5, 5, 350},
	}
	t := &table{header: []string{"Machine", "cycles/instr", "cycle (ns)", "mem time (ns)", "miss cost (cycles)", "miss cost (instr)"}}
	var instrCosts []float64
	for _, rd := range rows {
		missCycles := rd.memNS / rd.cycleNS
		missInstr := missCycles / rd.cpi
		instrCosts = append(instrCosts, missInstr)
		t.add(rd.name,
			fmt.Sprintf("%.1f", rd.cpi),
			fmt.Sprintf("%.0f", rd.cycleNS),
			fmt.Sprintf("%.0f", rd.memNS),
			fmt.Sprintf("%.0f", missCycles),
			fmt.Sprintf("%.1f", missInstr))
	}

	var b strings.Builder
	b.WriteString(t.render())
	b.WriteString("\nPaper values: 6 cycles / 0.6 instructions (VAX), 12 / 8.6 (Titan), 70 / 140 (future\n" +
		"superscalar): 'in the future a cache miss on a superscalar machine executing two\n" +
		"instructions per cycle could cost well over 100 instruction times!'\n\n")

	// Measured: run the suite on a Titan-flavored machine with and
	// without caches (12-cycle miss penalty, small caches so misses
	// actually occur).
	suite, err := r.Cfg.suite()
	if err != nil {
		return nil, err
	}
	titan := machine.MultiTitan()
	titan.Name = "titan-nocache"
	withCache := machine.MultiTitan()
	withCache.Name = "titan-cache"
	withCache.ICache = &cache.Config{Name: "I", Lines: 256, LineWords: 4, MissPenalty: 12}
	withCache.DCache = &cache.Config{Name: "D", Lines: 256, LineWords: 4, MissPenalty: 12}

	jobs := make([]job, 0, 2*len(suite))
	for _, bm := range suite {
		jobs = append(jobs, job{bm.Name, defaultOpts(bm), titan}, job{bm.Name, defaultOpts(bm), withCache})
	}
	res, err := r.measureMany(ctx, jobs)
	if err != nil {
		return nil, err
	}

	var ratios []float64
	mt := &table{header: []string{"benchmark", "CPI (perfect memory)", "CPI (with caches)", "slowdown", "D-miss rate"}}
	for i, bm := range suite {
		r0, r1 := res[2*i], res[2*i+1]
		slow := r1.BaseCycles / r0.BaseCycles
		ratios = append(ratios, slow)
		miss := 0.0
		if r1.DCacheStats != nil {
			miss = r1.DCacheStats.MissRate()
		}
		mt.add(bm.Name, fmtF(r0.BaseCPI()), fmtF(r1.BaseCPI()), fmtF(slow), fmt.Sprintf("%.1f%%", miss*100))
	}
	b.WriteString("Measured on the simulator (Titan latencies, 256x4-word direct-mapped caches,\n12-cycle miss penalty):\n\n")
	b.WriteString(mt.render())

	return &Result{ID: "tab5-1", Title: "The cost of cache misses", Text: b.String(),
		Series: []metrics.Series{
			{Name: "miss-cost-instructions", X: []float64{0, 1, 2}, Y: instrCosts},
			{Name: "measured-slowdown", X: seq(len(ratios)), Y: ratios},
		}}, nil
}

// runSec51 reproduces the §5.1 worked example and then measures the real
// thing: how much of the ideal superscalar speedup survives when cache
// misses are modeled.
func runSec51(ctx context.Context, r *Runner) (*Result, error) {
	var b strings.Builder
	// The worked example, computed rather than quoted.
	base := 1.0 + 1.0 // 1.0 cpi issue + 1.0 cpi miss burden
	wide := 0.5 + 1.0
	b.WriteString("Worked example (§5.1): a 2.0 cpi machine (1.0 issue + 1.0 cache-miss burden)\n")
	fmt.Fprintf(&b, "given 3-wide issue improves to %.1f cpi: speedup %.0f%%, not the %.0f%% seen when\n",
		wide, (base/wide-1)*100, (1.0/0.5-1)*100)
	b.WriteString("misses are ignored.\n\n")

	// Measured: ideal superscalar speedup with perfect memory vs. with
	// caches, harmonic mean over the suite.
	suite, err := r.Cfg.suite()
	if err != nil {
		return nil, err
	}
	deg := r.Cfg.maxDegree()
	if deg > 4 {
		deg = 4 // §5.1's argument is about modest issue widths
	}
	cc := func(m *machine.Config) *machine.Config {
		m.ICache = &cache.Config{Name: "I", Lines: 128, LineWords: 4, MissPenalty: 20}
		m.DCache = &cache.Config{Name: "D", Lines: 128, LineWords: 4, MissPenalty: 20}
		m.Name += "-cache"
		return m
	}
	machines := []*machine.Config{
		machine.Base(), machine.IdealSuperscalar(deg),
		cc(machine.Base()), cc(machine.IdealSuperscalar(deg)),
	}
	jobs := make([]job, 0, len(machines)*len(suite))
	for _, bm := range suite {
		for _, m := range machines {
			jobs = append(jobs, job{bm.Name, defaultOpts(bm), m})
		}
	}
	res, err := r.measureMany(ctx, jobs)
	if err != nil {
		return nil, err
	}
	var perfect, cached []float64
	for i := range suite {
		b1, w1, b2, w2 := res[4*i], res[4*i+1], res[4*i+2], res[4*i+3]
		perfect = append(perfect, b1.BaseCycles/w1.BaseCycles)
		cached = append(cached, b2.BaseCycles/w2.BaseCycles)
	}
	hp, hc := metrics.HarmonicMean(perfect), metrics.HarmonicMean(cached)
	fmt.Fprintf(&b, "Measured (%d-wide ideal superscalar, harmonic mean over the suite):\n", deg)
	fmt.Fprintf(&b, "  speedup with perfect memory: %.2f\n", hp)
	fmt.Fprintf(&b, "  speedup with 20-cycle-miss caches: %.2f\n", hc)
	b.WriteString("\nPaper shape: 'cache miss effects decrease the benefit of parallel instruction\nissue.'\n")
	return &Result{ID: "sec5-1", Title: "Cache misses vs. parallel issue", Text: b.String(),
		Series: []metrics.Series{{Name: "speedup", X: []float64{0, 1}, Y: []float64{hp, hc}}}}, nil
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

var _ = compiler.O0
