package main

import (
	"math"
	"sort"

	"ilp/internal/experiments"
)

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs (NaN when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s))/100)) - 1
	return s[max(k, 0)]
}

// quartiles are the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so a
// spread computed here matches one computed from the same values there.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld, n := len(s), 4
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}

// layers reads per-layer metrics out of a traced run's spans and counters.
// A span or counter name the workload itself recorded is read from the
// workload's setup and rounds only; a name it did not record comes from the
// tour. Times and counts are per iteration of the phase that recorded them
// (per set-up repetition, per round, or the one tour).
type layers struct {
	spans    []span
	self     []int64
	counters []counter
}

func newLayers(t *tracer) *layers {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &layers{spans: t.spans, self: selfTimes(t.spans), counters: t.counters}
}

// pick selects the records of name by the rule above and returns their
// indices and the number of distinct runs they came from.
func pick(n int, name func(int) string, run func(int) string, want string) ([]int, int) {
	var own, tour []int
	for i := 0; i < n; i++ {
		if name(i) != want {
			continue
		}
		if run(i) == "tour" {
			tour = append(tour, i)
		} else {
			own = append(own, i)
		}
	}
	if len(own) == 0 {
		own = tour
	}
	runs := map[string]bool{}
	for _, i := range own {
		runs[run(i)] = true
	}
	return own, len(runs)
}

func (l *layers) spanIdx(name string) ([]int, int) {
	return pick(len(l.spans), func(i int) string { return l.spans[i].Name }, func(i int) string { return l.spans[i].Run }, name)
}

// selfS is the self time of spans named name, seconds per run.
func (l *layers) selfS(name string) float64 {
	idx, runs := l.spanIdx(name)
	var ns int64
	for _, i := range idx {
		ns += l.self[i]
	}
	return float64(ns) / 1e9 / float64(runs)
}

// spansPerRun is the number of spans named name per run.
func (l *layers) spansPerRun(name string) float64 {
	idx, runs := l.spanIdx(name)
	return float64(len(idx)) / float64(runs)
}

// p50ms is the median duration of spans named name, in ms.
func (l *layers) p50ms(name string) float64 {
	idx, _ := l.spanIdx(name)
	d := make([]float64, len(idx))
	for k, i := range idx {
		d[k] = float64(l.spans[i].End-l.spans[i].Start) / 1e6
	}
	return median(d)
}

// count is counter name summed per run.
func (l *layers) count(name string) float64 {
	idx, runs := pick(len(l.counters), func(i int) string { return l.counters[i].Name }, func(i int) string { return l.counters[i].Run }, name)
	var v float64
	for _, i := range idx {
		v += l.counters[i].Value
	}
	return v / float64(runs)
}

// engineRoles name the sim-engine machines in metric names.
var engineRoles = []string{"base", "ss8", "sp8", "cray1", "multititan", "caches"}

// runnerCounters are the experiments.RunnerStats fields published as
// runner.<name>.
var runnerCounters = []string{"compiles", "compile_hits", "sims", "sim_hits", "batched_cells",
	"parallel_shards", "instructions", "cond_traces", "mispath_exits", "resumed"}

// countRunner records a runner's cache and batch counters.
func countRunner(t *tracer, st experiments.RunnerStats) {
	for i, v := range []int64{st.Compiles, st.CompileHits, st.Sims, st.SimHits, st.BatchedCells,
		st.ParallelShards, st.Instructions, st.CondTraces, st.MispathExits, st.Resumed} {
		t.count("runner."+runnerCounters[i], float64(v))
	}
}

// layerMetrics are the per-layer metrics of a traced run. README.md says
// which end-to-end metric each should move, on which workload.
func layerMetrics(r *run) []metric {
	l := newLayers(r.tr)
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }

	for _, e := range experiments.Experiments() {
		add("exp."+e.ID+"_s", "s", l.selfS("exp."+e.ID))
	}
	add("runner.resume_s", "s", l.selfS("runner.resume"))
	for _, c := range runnerCounters {
		add("runner."+c, "count", l.count("runner."+c))
	}
	add("cells.live", "count", l.count("cells.live"))
	add("cells.cached", "count", l.count("cells.cached"))

	add("store.open_s", "s", l.selfS("store.open"))
	add("store.records", "count", l.count("store.records"))
	add("store.bytes", "bytes", l.count("store.bytes"))
	add("store.append_s", "s", l.selfS("store.append"))
	add("store.append_p50_ms", "ms", l.p50ms("store.append"))

	add("lang.frontend_s", "s", l.selfS("lang.frontend"))
	for _, lvl := range []string{"O0", "O1", "O2", "O3", "O4", "careful", "verify"} {
		add("compiler."+lvl+"_s", "s", l.selfS("compiler."+lvl))
	}

	add("sim.predecode_s", "s", l.selfS("sim.predecode"))
	add("sim.profile_s", "s", l.selfS("sim.profile"))
	add("sim.specialize_s", "s", l.selfS("sim.specialize"))
	add("sim.superblocks", "count", l.count("sim.superblocks"))
	add("sim.cond_traces", "count", l.count("sim.cond_traces"))
	add("statictime.analyze_s", "s", l.selfS("statictime.analyze"))
	add("trace.analyze_s", "s", l.selfS("trace.analyze"))

	for _, role := range engineRoles {
		add("sim.run."+role+"_minstr_s", "Minstr/s", l.count("sim.run."+role+".instructions")/l.selfS("sim.run."+role)/1e6)
	}
	add("sim.batch_s", "s", l.selfS("sim.batch"))
	add("sim.batch.shards", "count", l.count("sim.batch.shards"))
	add("sim.batch.mispaths", "count", l.count("sim.batch.mispaths"))
	add("sim.batch.replays", "count", l.count("sim.batch.replays"))
	add("sim.instructions", "count", l.count("sim.instructions"))

	add("ilpd.ready_s", "s", l.selfS("ilpd.ready"))
	add("ilpd.submit_p50_ms", "ms", l.p50ms("ilpd.submit"))
	add("ilpd.warm_p50_ms", "ms", l.p50ms("ilpd.sweep.warm"))
	add("ilpd.cold_p50_ms", "ms", l.p50ms("ilpd.sweep.cold"))
	add("ilpd.cold_sweeps", "count", l.spansPerRun("ilpd.sweep.cold"))
	add("ilpd.live_sims", "count", l.count("ilpd.live_sims"))
	add("ilpd.sim_hits", "count", l.count("ilpd.sim_hits"))
	add("ilpd.rejected_429", "count", l.count("ilpd.rejected_429"))
	add("ilpd.cells_cached_frac", "ratio", l.count("ilpd.cells_cached")/l.count("ilpd.cells"))

	// The untraced wall of the same work is the traced wall minus the time
	// the recorder itself took; two separate runs differ by more noise than
	// the recorder costs, so their ratio would measure the noise.
	add("trace.overhead_frac", "ratio", float64(r.recCost)/float64(r.wall-r.recCost))
	return out
}
