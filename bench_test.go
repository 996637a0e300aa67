// bench_test.go gives every table and figure of the paper a testing.B
// entry point, so `go test -bench=.` regenerates the whole evaluation and
// reports each experiment's headline number as a custom metric. Benchmarks
// default to a reduced sweep (degree 4, a two-benchmark subset) so one
// iteration stays fast; run cmd/ilpbench for the full-size reproduction.
package ilp_test

import (
	"context"
	"io"
	"testing"

	"ilp/internal/experiments"
	"ilp/internal/metrics"
)

// quickCfg keeps one benchmark iteration small.
func quickCfg() experiments.Config {
	return experiments.Config{
		MaxDegree:  4,
		Benchmarks: []string{"yacc", "whet"},
	}
}

// runExperiment is the common body: a fresh runner per iteration (no
// cross-iteration caching), reporting a headline metric from the result.
func runExperiment(b *testing.B, id string, cfg experiments.Config, metric func(*experiments.Result) (string, float64)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(cfg)
		res, err := r.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if metric != nil {
			name, v := metric(res)
			b.ReportMetric(v, name)
		}
	}
}

func lastY(s metrics.Series) float64 {
	return s.Y[len(s.Y)-1]
}

func BenchmarkFig2Diagrams(b *testing.B) {
	runExperiment(b, "fig2", quickCfg(), nil)
}

func BenchmarkTable2_1(b *testing.B) {
	runExperiment(b, "tab2-1", quickCfg(), func(res *experiments.Result) (string, float64) {
		return "cray1-degree", res.Series[0].Y[1]
	})
}

func BenchmarkFig4_1(b *testing.B) {
	runExperiment(b, "fig4-1", quickCfg(), func(res *experiments.Result) (string, float64) {
		return "ss-hm-speedup", lastY(res.Series[0])
	})
}

func BenchmarkFig4_2(b *testing.B) {
	runExperiment(b, "fig4-2", quickCfg(), nil)
}

func BenchmarkFig4_3(b *testing.B) {
	runExperiment(b, "fig4-3", quickCfg(), nil)
}

func BenchmarkFig4_4(b *testing.B) {
	runExperiment(b, "fig4-4", quickCfg(), func(res *experiments.Result) (string, float64) {
		return "cray-actual-speedup", lastY(res.Series[1])
	})
}

func BenchmarkFig4_5(b *testing.B) {
	runExperiment(b, "fig4-5", quickCfg(), func(res *experiments.Result) (string, float64) {
		return "min-parallelism", lastY(res.Series[0])
	})
}

func BenchmarkFig4_6(b *testing.B) {
	cfg := quickCfg()
	cfg.Benchmarks = nil // fig4-6 uses linpack/livermore internally
	runExperiment(b, "fig4-6", cfg, func(res *experiments.Result) (string, float64) {
		return "linpack-careful-x10", lastY(res.Series[1])
	})
}

func BenchmarkFig4_7(b *testing.B) {
	runExperiment(b, "fig4-7", quickCfg(), func(res *experiments.Result) (string, float64) {
		return "left-graph-parallelism", res.Series[0].Y[0]
	})
}

func BenchmarkFig4_8(b *testing.B) {
	runExperiment(b, "fig4-8", quickCfg(), func(res *experiments.Result) (string, float64) {
		return "O4-parallelism", lastY(res.Series[0])
	})
}

func BenchmarkTable5_1(b *testing.B) {
	runExperiment(b, "tab5-1", quickCfg(), func(res *experiments.Result) (string, float64) {
		return "future-miss-cost-instr", res.Series[0].Y[2]
	})
}

func BenchmarkSec5_1(b *testing.B) {
	runExperiment(b, "sec5-1", quickCfg(), func(res *experiments.Result) (string, float64) {
		return "cached-speedup", res.Series[0].Y[1]
	})
}

// Ablations (DESIGN.md §5).

func BenchmarkAblationBranchRule(b *testing.B) {
	runExperiment(b, "abl-branch", quickCfg(), nil)
}

func BenchmarkAblationTempBudget(b *testing.B) {
	cfg := quickCfg()
	cfg.Benchmarks = nil
	runExperiment(b, "abl-temps", cfg, nil)
}

func BenchmarkAblationScheduling(b *testing.B) {
	runExperiment(b, "abl-sched", quickCfg(), nil)
}

func BenchmarkAblationMemdep(b *testing.B) {
	runExperiment(b, "abl-memdep", quickCfg(), nil)
}

// Extensions: prose claims of the paper, measured.

func BenchmarkExtClassConflicts(b *testing.B) {
	runExperiment(b, "ext-conflicts", quickCfg(), func(res *experiments.Result) (string, float64) {
		return "conflict-speedup", lastY(res.Series[1])
	})
}

func BenchmarkExtVLIWDensity(b *testing.B) {
	runExperiment(b, "ext-vliw", quickCfg(), func(res *experiments.Result) (string, float64) {
		return "slot-utilization", res.Series[0].Y[0]
	})
}

func BenchmarkExtICacheUnrolling(b *testing.B) {
	cfg := quickCfg()
	cfg.Benchmarks = nil
	runExperiment(b, "ext-icache", cfg, func(res *experiments.Result) (string, float64) {
		return "cached-x10-speedup", lastY(res.Series[1])
	})
}

func BenchmarkExtTraceLimits(b *testing.B) {
	runExperiment(b, "ext-limits", quickCfg(), func(res *experiments.Result) (string, float64) {
		return "oracle-parallelism", lastY(res.Series[2])
	})
}

// BenchmarkRunAllQuick is the end-to-end wall time of regenerating every
// experiment on the reduced sweep with one shared runner — the number
// BENCH_sim.json tracks as "RunAll wall time".
func BenchmarkRunAllQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(quickCfg())
		if _, err := r.RunAll(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllBatched regenerates the full reduced sweep on a runner in
// the default CLI shape (no retries, no store, no faults), whose sweeps
// lead their cache-miss cells through the runner's worker slots, each cell
// simulating on its slot's reusable engine, and reports end-to-end
// simulated Minstr/s — the sweep-level throughput the worker pool and
// superblock replay raise together. (The name predates the one measurement
// path; BENCH_sim.json is keyed by it.)
func BenchmarkRunAllBatched(b *testing.B) {
	var instrs int64
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(quickCfg())
		if _, err := r.RunAll(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
		st := r.Stats()
		if st.BatchedCells != st.Sims {
			b.Fatalf("sweep ran %d of its %d live cells on slot engines", st.BatchedCells, st.Sims)
		}
		instrs += st.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkRunAllParallel is BenchmarkRunAllBatched on four worker slots
// regardless of the host shape (the worker count never changes results,
// only concurrency): the headline number of the multi-core worker pool. On
// a single-core host the workers time-slice and throughput matches the
// batched number; on a 4-core runner it approaches 4×.
func BenchmarkRunAllParallel(b *testing.B) {
	cfg := quickCfg()
	cfg.Workers = 4
	var instrs int64
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(cfg)
		if _, err := r.RunAll(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
		st := r.Stats()
		if st.BatchedCells != st.Sims || st.ParallelShards == 0 {
			b.Fatalf("sweep did not run its live cells on parallel slot engines: %+v", st)
		}
		instrs += st.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkExperimentCacheSharing runs the three cache-geometry experiments
// on one runner and reports how much work the two-level cache eliminated:
// cache-only machine variants share compilations (compile-hits) and repeated
// measurements share simulations (sim-hits).
func BenchmarkExperimentCacheSharing(b *testing.B) {
	cfg := quickCfg()
	cfg.Benchmarks = nil
	var st experiments.RunnerStats
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(cfg)
		for _, id := range []string{"tab5-1", "sec5-1", "ext-icache"} {
			if _, err := r.Run(id); err != nil {
				b.Fatal(err)
			}
		}
		st = r.Stats()
	}
	b.ReportMetric(float64(st.Compiles), "compiles")
	b.ReportMetric(float64(st.CompileHits), "compile-hits")
	b.ReportMetric(float64(st.Sims), "sims")
	b.ReportMetric(float64(st.SimHits), "sim-hits")
}
