package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ilp/internal/experiments"
)

var (
	tinyOnce   sync.Once
	tinyOutput []byte
	tinyErr    error
)

// tinyConfig is a workload at the smallest scale that still runs every
// path: one benchmark (linpack, which has a careful-unrolling variant),
// degree 2, one round, a 40-request daemon script.
// The sweep workloads check against a canonical-order RunAll at that scale.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		workload: workload, seed: 7, seconds: 1e-9, trace: trace,
		root: root, work: t.TempDir(), testdata: filepath.Join(root, "bench", "testdata"),
		degree: 2, benches: []string{"linpack"}, requests: 40,
	}
	tinyOnce.Do(func() {
		var b bytes.Buffer
		_, tinyErr = newRunner(cfg, nil).RunAll(context.Background(), &b)
		tinyOutput = b.Bytes()
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	cfg.golden = tinyOutput
	return cfg
}

func readBenchmarkJSON(t *testing.T) declared {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	d, err := readDeclared(root)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWorkloads runs every workload at tiny scale, untraced and traced. Each
// must pass its own output checks and print exactly the metrics
// BENCHMARK.json declares for that mode, with the declared units.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload and spawns ilpd")
	}
	decl := readBenchmarkJSON(t)
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var funcs []string
	for name := range workloadFuncs {
		funcs = append(funcs, name)
	}
	sort.Strings(names)
	sort.Strings(funcs)
	if strings.Join(names, " ") != strings.Join(funcs, " ") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program runs %v", names, funcs)
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range decl.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, name := range funcs {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layer
			}
			t.Run(name+map[bool]string{false: "", true: "/trace"}[trace], func(t *testing.T) {
				r, err := execute(context.Background(), tinyConfig(t, name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if r.failed > 0 || r.attempted == 0 {
					t.Fatalf("%d of %d operations failed", r.failed, r.attempted)
				}
				var out bytes.Buffer
				if err := r.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rc runContext
				if err := json.Unmarshal([]byte(lines[0]), &rc); err != nil || rc.Seed != 7 || rc.Host.NProc == 0 {
					t.Errorf("context line %s: want the seed and host shape (%v)", lines[0], err)
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Errorf("result line says incorrect: %s", lines[len(lines)-1])
				}
				for n, v := range res.Metrics {
					if unit, ok := want[n]; !ok || unit != v.Unit {
						t.Errorf("printed %s in %q; BENCHMARK.json declares %q (declared: %v)", n, v.Unit, unit, ok)
					}
				}
				for n := range want {
					if _, ok := res.Metrics[n]; !ok {
						t.Errorf("declared metric %s was not printed", n)
					}
				}
			})
		}
	}
}

// TestDigestMismatchFails records fresh digests, checks that a run against
// them passes, then perturbs one and checks that the run fails.
func TestDigestMismatchFails(t *testing.T) {
	for _, workload := range []string{"sim-engine", "compile-matrix"} {
		t.Run(workload, func(t *testing.T) {
			cfg := tinyConfig(t, workload, false)
			cfg.testdata = t.TempDir()
			cfg.record = true
			if _, err := execute(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			cfg.record = false
			r, err := execute(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatalf("%d failures against freshly recorded digests", r.failed)
			}
			path := digestPath(cfg, workload)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(string(b), "\n")
			lines[1] = lines[1][:len(lines[1])-1] + "x" // the first entry, after the comment
			if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
				t.Fatal(err)
			}
			if r, err = execute(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			if r.failed == 0 {
				t.Fatalf("a perturbed digest left fail_frac at 0 (%d operations)", r.attempted)
			}
		})
	}
}

// TestSelfTime checks that a span's self time excludes what its children
// cover, counting overlapping children once and clipping children that
// outrun it.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // outruns root
		{Name: "a1", Parent: 1, Start: 12, End: 18}, // grandchild: not root's
		{Name: "other", Parent: -1, Start: 0, End: 7},
	}
	got := selfTimes(spans)
	want := []int64{50, 14, 30, 30, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}

	tr := newTracer()
	tr.setRun("round-1")
	outer := tr.begin(-1, "outer")
	tr.do(outer, "inner", func() {})
	tr.end(outer)
	tr.setRun("tour")
	tr.do(-1, "inner", func() {})
	l := newLayers(tr)
	if idx, runs := l.spanIdx("inner"); len(idx) != 1 || runs != 1 || l.spans[idx[0]].Run != "round-1" {
		t.Errorf("inner: picked spans %v from %d runs, want the workload's one", idx, runs)
	}
	if self := l.self[0]; self != l.spans[0].End-l.spans[0].Start-(l.spans[1].End-l.spans[1].Start) {
		t.Errorf("outer self time %d does not exclude inner", self)
	}
}

// TestStatistics checks the quantile method against Python's
// statistics.quantiles([1..10], n=4) == [2.75, 8.25].
func TestStatistics(t *testing.T) {
	xs := []float64{10, 2, 3, 4, 5, 6, 7, 8, 9, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v", m)
	}
	if p := percentile(xs, 99); p != 10 {
		t.Errorf("p99 = %v", p)
	}
	if p := percentile(xs, 50); p != 5 {
		t.Errorf("p50 = %v", p)
	}
	for n, want := range map[int]float64{2000: 99, 1000: 99, 999: 90, 162: 90, 99: 75, 48: 75, 39: 50, 1: 50} {
		if p := tailPercentile(n); p != want {
			t.Errorf("tail percentile of %d operations = p%v, want p%v", n, p, want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestDaemonScript checks the daemon-mixed inputs: 64 distinct requests,
// each sent at least once, so the cold share is 64/2000, and the same seed
// gives the same script.
func TestDaemonScript(t *testing.T) {
	menu := daemonMenu(config{degree: 8})
	if len(menu) != 64 {
		t.Fatalf("menu has %d distinct requests, want 64", len(menu))
	}
	for _, req := range menu {
		if _, err := experiments.ByID(req.Experiments[0]); err != nil {
			t.Error(err)
		}
	}
	script := daemonScript(3, len(menu), 2000)
	seen := map[int]int{}
	for _, k := range script {
		seen[k]++
	}
	if len(script) != 2000 || len(seen) != len(menu) {
		t.Fatalf("script of %d requests covers %d of %d menu entries", len(script), len(seen), len(menu))
	}
	if !slices.Equal(daemonScript(3, len(menu), 2000), script) {
		t.Error("the same seed drew a different script")
	}
}
