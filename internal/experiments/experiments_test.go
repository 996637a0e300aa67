package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ilp/internal/compiler"
	"ilp/internal/machine"
)

// Shape assertions run on a reduced sweep (degree 4, two benchmarks) to
// stay fast; the full-size shapes are recorded in EXPERIMENTS.md from
// cmd/ilpbench runs.

func testRunner() *Runner {
	return NewRunner(Config{MaxDegree: 4, Benchmarks: []string{"yacc", "whet"}})
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "tab2-1",
		"fig4-1", "fig4-2", "fig4-3", "fig4-4", "fig4-5",
		"fig4-6", "fig4-7", "fig4-8",
		"tab5-1", "sec5-1",
		"abl-branch", "abl-temps", "abl-sched", "abl-memdep",
		"ext-conflicts", "ext-vliw", "ext-icache", "ext-limits", "ext-slack",
	}
	// IDs is the paper's order, the order `ilpbench all` renders.
	if ids := IDs(); !slices.Equal(ids, want) {
		t.Fatalf("IDs() = %v, want %v", ids, want)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("expected error for unknown id")
	}
}

func TestFig2Renders(t *testing.T) {
	res, err := testRunner().Run("fig2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 2-1", "Figure 2-4", "Figure 2-6", "Figure 2-8", "#"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("fig2 output missing %q", want)
		}
	}
}

func TestTab21Shape(t *testing.T) {
	res, err := testRunner().Run("tab2-1")
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series[0]
	measuredMT, measuredCR := s.Y[0], s.Y[1]
	paperMT, paperCR := s.Y[2], s.Y[3]
	// At the paper's mix we must reproduce Table 2-1 exactly.
	if paperMT < 1.69 || paperMT > 1.71 {
		t.Errorf("MultiTitan at paper mix = %.3f, want 1.70", paperMT)
	}
	if paperCR < 4.39 || paperCR > 4.41 {
		t.Errorf("CRAY-1 at paper mix = %.3f, want 4.40", paperCR)
	}
	// At the measured mix the ordering and rough magnitudes must hold.
	if !(measuredCR > 2.5*measuredMT) {
		t.Errorf("CRAY-1 (%.2f) should be far more superpipelined than MultiTitan (%.2f)",
			measuredCR, measuredMT)
	}
	if measuredMT < 1.2 || measuredMT > 2.5 {
		t.Errorf("MultiTitan measured degree %.2f outside plausible band", measuredMT)
	}
}

func TestFig41Shape(t *testing.T) {
	res, err := testRunner().Run("fig4-1")
	if err != nil {
		t.Fatal(err)
	}
	ss, sp := res.Series[0], res.Series[1]
	for i := range ss.X {
		if sp.Y[i] > ss.Y[i]+1e-9 {
			t.Errorf("degree %v: superpipelined (%.3f) beats superscalar (%.3f); paper says the reverse",
				ss.X[i], sp.Y[i], ss.Y[i])
		}
		if i > 0 {
			if ss.Y[i] < ss.Y[i-1]-1e-9 || sp.Y[i] < sp.Y[i-1]-1e-9 {
				t.Errorf("speedups must be monotone in degree")
			}
		}
	}
	// The gap shrinks (relative) from degree 2 to the max degree.
	gap2 := ss.Y[1]/sp.Y[1] - 1
	gapN := ss.Y[len(ss.Y)-1]/sp.Y[len(sp.Y)-1] - 1
	if gapN > gap2+0.02 {
		t.Errorf("superscalar/superpipelined gap should shrink with degree: %.3f -> %.3f", gap2, gapN)
	}
}

func TestFig44Shape(t *testing.T) {
	res, err := testRunner().Run("fig4-4")
	if err != nil {
		t.Fatal(err)
	}
	unit, actual := res.Series[0], res.Series[1]
	uN, aN := unit.Y[len(unit.Y)-1], actual.Y[len(actual.Y)-1]
	if !(uN > aN) {
		t.Errorf("unit-latency speedup (%.2f) should exceed actual-latency speedup (%.2f)", uN, aN)
	}
	if aN > 1.35 {
		t.Errorf("with actual latencies the CRAY-1 should benefit very little from parallel issue, got %.2f", aN)
	}
	if uN < 1.5 {
		t.Errorf("with unit latencies parallel issue should look attractive, got %.2f", uN)
	}
}

func TestFig45Shape(t *testing.T) {
	res, err := testRunner().Run("fig4-5")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if s.Y[0] != 1.0 {
			t.Errorf("%s: speedup at multiplicity 1 = %v, want 1", s.Name, s.Y[0])
		}
		last := s.Y[len(s.Y)-1]
		if last < 1.3 || last > 5 {
			t.Errorf("%s: available parallelism %.2f outside the paper's plausible band", s.Name, last)
		}
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1]-1e-9 {
				t.Errorf("%s: speedup not monotone in issue multiplicity", s.Name)
			}
		}
	}
}

func TestFig46Shape(t *testing.T) {
	r := NewRunner(Config{MaxDegree: 8})
	res, err := r.Run("fig4-6")
	if err != nil {
		t.Fatal(err)
	}
	find := func(name string) []float64 {
		for _, s := range res.Series {
			if s.Name == name {
				return s.Y
			}
		}
		t.Fatalf("series %s missing", name)
		return nil
	}
	ln := find("linpack.naive")
	lc := find("linpack.careful")
	// Unrolling helps; careful at x10 beats naive at x10.
	if !(ln[2] > ln[0]) {
		t.Errorf("naive 4x unrolling should beat no unrolling: %v", ln)
	}
	if !(lc[3] >= ln[3]) {
		t.Errorf("careful x10 (%.2f) should be at least naive x10 (%.2f)", lc[3], ln[3])
	}
	// Naive flattens: the x4 -> x10 gain is small relative to x1 -> x4.
	if ln[3]-ln[2] > ln[2]-ln[0] {
		t.Errorf("naive unrolling should be mostly flat after 4x: %v", ln)
	}
}

func TestFig47Values(t *testing.T) {
	res, err := testRunner().Run("fig4-7")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5.0 / 3, 4.0 / 3, 1.5}
	for i, w := range want {
		got := res.Series[0].Y[i]
		if got < w-0.01 || got > w+0.01 {
			t.Errorf("graph %d parallelism = %.3f, want %.3f (paper: 1.67/1.33/1.50)", i, got, w)
		}
	}
}

func TestFig48Shape(t *testing.T) {
	res, err := testRunner().Run("fig4-8")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if len(s.Y) != 5 {
			t.Fatalf("%s: want 5 levels, got %d", s.Name, len(s.Y))
		}
		// Scheduling (level 1) must not hurt parallelism.
		if s.Y[1] < s.Y[0]-1e-9 {
			t.Errorf("%s: scheduling reduced parallelism %.2f -> %.2f", s.Name, s.Y[0], s.Y[1])
		}
		// All levels stay in a plausible band.
		for i, v := range s.Y {
			if v < 1.0 || v > 6 {
				t.Errorf("%s level %d: parallelism %.2f out of band", s.Name, i, v)
			}
		}
	}
}

func TestTab51Values(t *testing.T) {
	res, err := testRunner().Run("tab5-1")
	if err != nil {
		t.Fatal(err)
	}
	costs := res.Series[0].Y
	// The static computation must reproduce the paper's column exactly:
	// 0.6, 8.6, 140 instruction times.
	if costs[0] < 0.55 || costs[0] > 0.65 {
		t.Errorf("VAX miss cost %.2f instr, want 0.6", costs[0])
	}
	if costs[1] < 8.4 || costs[1] > 8.8 {
		t.Errorf("Titan miss cost %.2f instr, want 8.6", costs[1])
	}
	if costs[2] < 139 || costs[2] > 141 {
		t.Errorf("future machine miss cost %.1f instr, want 140", costs[2])
	}
	// Measured: caches must slow things down.
	for i, slow := range res.Series[1].Y {
		if slow < 1.0 {
			t.Errorf("benchmark %d: caches speed things up?! %.3f", i, slow)
		}
	}
}

func TestSec51Shape(t *testing.T) {
	res, err := testRunner().Run("sec5-1")
	if err != nil {
		t.Fatal(err)
	}
	perfect, cached := res.Series[0].Y[0], res.Series[0].Y[1]
	if !(cached < perfect) {
		t.Errorf("cache misses should shrink the parallel-issue speedup: perfect %.2f, cached %.2f",
			perfect, cached)
	}
}

func TestAblations(t *testing.T) {
	r := testRunner()
	for _, id := range []string{"abl-branch", "abl-sched", "abl-memdep"} {
		res, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.Text == "" {
			t.Errorf("%s: empty output", id)
		}
	}
	// Issuing through branches can only help.
	res, err := r.Run("abl-branch")
	if err != nil {
		t.Fatal(err)
	}
	withBreaks, through := res.Series[0].Y, res.Series[1].Y
	for i := range withBreaks {
		if through[i] < withBreaks[i]-1e-9 {
			t.Errorf("benchmark %d: removing group breaks reduced parallelism", i)
		}
	}
}

// TestPredecodeSharedOnce pins the predecode-once contract: machines that
// share a schedule fingerprint (here: identical Base schedules under
// different names, so each gets its own sim-cache cell) must share one
// compilation AND one predecoded artifact, with every live simulation
// running on it read-only.
func TestPredecodeSharedOnce(t *testing.T) {
	r := NewRunner(Config{})
	const variants = 3
	for i := 0; i < variants; i++ {
		m := machine.Base()
		m.Name = fmt.Sprintf("base-v%d", i)
		if _, err := r.Measure("whet", compiler.Options{}, m); err != nil {
			t.Fatalf("measure %s: %v", m.Name, err)
		}
	}
	st := r.Stats()
	if st.Compiles != 1 {
		t.Errorf("schedule-identical machines recompiled: Compiles = %d, want 1", st.Compiles)
	}
	if st.Predecodes != 1 {
		t.Errorf("schedule-identical machines re-predecoded: Predecodes = %d, want 1", st.Predecodes)
	}
	if st.Sims != variants {
		t.Fatalf("Sims = %d, want %d distinct cells", st.Sims, variants)
	}
	if st.PredecodeShared != variants {
		t.Errorf("PredecodeShared = %d, want %d (every live sim on the shared artifact)", st.PredecodeShared, variants)
	}
	rep := r.Report()
	if rep.Predecodes != st.Predecodes || rep.PredecodeShared != st.PredecodeShared {
		t.Errorf("SweepReport predecode counters %d/%d do not mirror stats %d/%d",
			rep.Predecodes, rep.PredecodeShared, st.Predecodes, st.PredecodeShared)
	}
}

func TestRunnerCache(t *testing.T) {
	r := testRunner()
	if _, err := r.Run("fig4-5"); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Sims == 0 || st.Compiles == 0 {
		t.Fatalf("cache empty after run: %+v", st)
	}
	if _, err := r.Run("fig4-5"); err != nil {
		t.Fatal(err)
	}
	st2 := r.Stats()
	if st2.Sims != st.Sims || st2.Compiles != st.Compiles {
		t.Errorf("second run redid work: %+v -> %+v", st, st2)
	}
	if st2.SimHits <= st.SimHits {
		t.Errorf("second run did not hit the sim cache: %+v -> %+v", st, st2)
	}
}
