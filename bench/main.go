// Command bench is the repository's benchmark of record. It runs one
// workload of the paper's evaluation pipeline through the public functions
// of every layer (runner, store, front end, compiler, simulator, analyses
// and the ilpd daemon), checks that every output is correct, and prints the
// workload's end-to-end metrics — or, with --trace 1, its per-layer metrics
// — as the last line of standard output. README.md describes the workloads
// and metrics; BENCHMARK.json at the repository root declares them.
//
//	bench --workload paper-sweep --seed 1 --seconds 20 --trace 0
//	bench --workload sim-engine --seed 1 --runs 10
//	bench --workload compile-matrix --record
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// workers is the load the benchmark puts on the host: runner workers, batch
// shards and daemon client connections. It is sized for a two-core host, so
// runs on bigger hosts still measure the same shape.
const workers = 2

// Each workload repeats its set-up at least minSetups times, then more while
// the repetitions so far took less than setupBudget, up to maxSetups;
// setup_s is the median. A set-up of a few milliseconds gets a hundred
// repetitions, so its median holds still from run to run.
const (
	minSetups   = 5
	maxSetups   = 101
	setupBudget = 1.5 // seconds
)

// workloadFuncs maps each workload name to the function that runs it. The
// reasons each exists are in README.md and BENCHMARK.json.
var workloadFuncs = map[string]func(context.Context, *run) error{
	"paper-sweep":    paperSweep,
	"store-sweep":    storeSweep,
	"sim-engine":     simEngine,
	"compile-matrix": compileMatrix,
	"daemon-mixed":   daemonMixed,
}

// config is everything one run depends on. main fills it for the full-scale
// benchmark; tests shrink degree, benchmarks and requests.
type config struct {
	workload string
	seed     int64
	seconds  float64 // time budget of the timed phase (see loop)
	trace    bool
	record   bool // rewrite the digest files instead of checking them

	root     string // repository root: the golden output and ilpd's sources
	work     string // scratch directory: stores, the ilpd binary, span files
	testdata string // digest files

	degree   int      // swept degree of the sweep and daemon workloads
	benches  []string // benchmark suite (nil means all eight)
	requests int      // daemon-mixed script length
	golden   []byte   // expected output of one full sweep
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: paper-sweep, store-sweep, sim-engine, compile-matrix or daemon-mixed")
	seed := fs.Int64("seed", 1, "seed from which the workload's inputs are generated")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds (at least one round runs)")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	runs := fs.Int("runs", 0, "run the workload in this many fresh processes with seeds seed, seed+1, ... and report each metric's median, quartiles and spread")
	record := fs.Bool("record", false, "rewrite testdata/<workload>.digest from this run instead of checking against it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if workloadFuncs[*workload] == nil || fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: need --workload one of paper-sweep, store-sweep, sim-engine, compile-matrix, daemon-mixed; --trace 0 or 1; --seconds > 0\n")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *runs > 0 {
		return runMany(root, *workload, *seed, *seconds, *runs, stdout, stderr)
	}
	golden, err := os.ReadFile(filepath.Join(root, "docs", "ilpbench-output.txt"))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, record: *record,
		root: root, work: filepath.Join(root, ".bench_build"), testdata: filepath.Join(root, "bench", "testdata"),
		degree: 8, requests: 2000, golden: golden,
	}
	if cfg.record && cfg.workload != "sim-engine" && cfg.workload != "compile-matrix" {
		fmt.Fprintf(stderr, "bench: --record applies to sim-engine and compile-matrix, which have digest files\n")
		return 2
	}
	r, err := execute(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := r.print(stdout); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the root of module ilp.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && modulePath(b) == "ilp" {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("no enclosing checkout of module ilp; run from the repository")
		}
		dir = up
	}
}

func modulePath(gomod []byte) string {
	var mod string
	fmt.Sscanf(string(gomod), "module %s", &mod)
	return mod
}

// run accumulates the measurements and checks of one workload run.
type run struct {
	cfg config
	tr  *tracer // nil unless cfg.trace

	attempted, failed int

	setups []float64 // seconds per set-up repetition
	rounds []roundStat
	cur    roundStat

	instr   int64   // instructions simulated in the simulation phases
	simSecs float64 // host seconds of those phases

	childRSSMB float64 // peak RSS of the ilpd child; 0 means this process

	wall    time.Duration // setup and rounds, for trace.overhead_frac
	recCost time.Duration // time the tracer spent recording them
}

// execute runs cfg's workload, then, when tracing, the tour of the layers
// the workload does not reach.
func execute(ctx context.Context, cfg config) (*run, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	r := &run{cfg: cfg}
	if cfg.trace {
		r.tr = newTracer()
	}
	start := time.Now()
	if err := workloadFuncs[cfg.workload](ctx, r); err != nil {
		return nil, err
	}
	r.wall = time.Since(start)
	if cfg.trace {
		r.recCost = r.tr.spent()
		if err := tour(ctx, r); err != nil {
			return nil, fmt.Errorf("tour: %w", err)
		}
	}
	return r, nil
}

// moreSetups reports whether the workload should time another set-up
// repetition (see minSetups).
func (r *run) moreSetups() bool {
	total := 0.0
	for _, s := range r.setups {
		total += s
	}
	n := len(r.setups)
	return n < minSetups || (n < maxSetups && total < setupBudget)
}

// setup times one set-up repetition; setup_s is their median.
func (r *run) setup(f func() error) error {
	r.tr.setRun(fmt.Sprintf("setup-%d", len(r.setups)+1))
	t := time.Now()
	err := f()
	r.setups = append(r.setups, time.Since(t).Seconds())
	return err
}

// loop runs rounds while one more, if it took as long as the last, would
// still end within cfg.seconds of the first, and always at least one. A
// round's time is the sum of its timed parts.
func (r *run) loop(round func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; i == 0 || (time.Since(start)+last).Seconds() <= r.cfg.seconds; i++ {
		r.tr.setRun(fmt.Sprintf("round-%d", i+1))
		r.cur = roundStat{}
		t := time.Now()
		if err := round(i); err != nil {
			return err
		}
		last = time.Since(t)
		r.rounds = append(r.rounds, r.cur)
	}
	return nil
}

// timed runs f as measured work: its host time counts towards the round and
// its heap allocation towards alloc_mb and allocs_m. Output checks run
// outside it.
func (r *run) timed(f func()) time.Duration {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t := time.Now()
	f()
	d := time.Since(t)
	runtime.ReadMemStats(&b)
	r.cur.d += d
	r.cur.alloc += b.TotalAlloc - a.TotalAlloc
	r.cur.mallocs += b.Mallocs - a.Mallocs
	return d
}

// roundStat is what one round's measured work took.
type roundStat struct {
	d              time.Duration
	alloc, mallocs uint64    // heap bytes and objects allocated
	lat            []float64 // latency of each operation, ms
}

// op counts one attempted operation, failed unless ok. The first few
// failures are described on stderr.
func (r *run) op(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if r.failed <= 10 {
		fmt.Fprintf(os.Stderr, "bench: %s: failed: %s\n", r.cfg.workload, fmt.Sprintf(format, args...))
	}
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// metric is one named value of the result line.
type metric struct {
	name, unit string
	value      float64
}

// endToEnd is what a user of the pipeline sees; the per-workload meaning of
// each metric is in README.md. Every figure is a median over rounds, so a
// burst of host noise in a few rounds moves none of them.
func (r *run) endToEnd() []metric {
	var secs, alloc, mallocs []float64
	for _, rs := range r.rounds {
		secs = append(secs, rs.d.Seconds())
		alloc = append(alloc, float64(rs.alloc)/1e6)
		mallocs = append(mallocs, float64(rs.mallocs)/1e6)
	}
	lat := r.opLatencies()
	return []metric{
		{"setup_s", "s", median(r.setups)},
		{"round_s", "s", median(secs)},
		{"minstr_s", "Minstr/s", float64(r.instr) / r.simSecs / 1e6},
		{"p50_ms", "ms", percentile(lat, 50)},
		{"tail_ms", "ms", percentile(lat, tailPercentile(len(lat)))},
		{"alloc_mb", "MB", median(alloc)},
		{"allocs_m", "M", median(mallocs)},
	}
}

// tailPercentile is the highest of p99, p90 and p75 that leaves at least ten
// of n operations beyond it, or p50 when none does: p99 of daemon-mixed's
// 2000 requests, p90 of compile-matrix's 162 variants, p75 of sim-engine's
// 48 cells. A percentile with fewer operations beyond it is their maximum
// in all but name, and moves with every stray slow run.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 90, 75} {
		if n-int(math.Ceil(p*float64(n)/100)) >= 10 {
			return p
		}
	}
	return 50
}

// opLatencies is each operation's median latency over the rounds. Every
// round runs the same operations in the same order, so the k-th latency of
// each round belongs to the same operation.
func (r *run) opLatencies() []float64 {
	if len(r.rounds) == 0 {
		return nil
	}
	lat := make([]float64, len(r.rounds[0].lat))
	per := make([]float64, len(r.rounds))
	for k := range lat {
		for j, rs := range r.rounds {
			per[j] = rs.lat[k]
		}
		lat[k] = median(per)
	}
	return lat
}

// samples is the number of operation latencies measured.
func (r *run) samples() int {
	n := 0
	for _, rs := range r.rounds {
		n += len(rs.lat)
	}
	return n
}

// maxRSSMB is the peak resident set of the ilpd child on daemon-mixed, of
// this process otherwise. It is reported beside the result, not as a
// metric: it moves 10-20% from run to run with GC pacing and with the size
// of the runner's batch slab, too much for a bound to mean anything.
func (r *run) maxRSSMB() float64 {
	if r.childRSSMB > 0 {
		return r.childRSSMB
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// host is the shape of the machine a result was measured on, recorded
// beside every result and span file so runs compare like-for-like.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostShape() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if h.Commit != "unknown" {
			h.Commit += dirty
		}
	}
	return h
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runContext is the line before the result: the workload, seed and host shape
// the result was measured with, and what the run measured beside its
// metrics. The result line's keys are fixed, so these ride on their own
// line.
type runContext struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Host     host    `json:"host"`
	Rounds   int     `json:"rounds"`
	Samples  int     `json:"samples"`
	Ops      int     `json:"ops"`      // operations per round
	TailPct  float64 `json:"tail_pct"` // the percentile tail_ms reports
	FailFrac float64 `json:"fail_frac"`
	MaxRSSMB float64 `json:"max_rss_mb"`
	SpanFile string  `json:"span_file,omitempty"`
}

func (r *run) metrics() ([]metric, error) {
	ms := r.endToEnd()
	if r.cfg.trace {
		ms = layerMetrics(r)
	}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	return ms, nil
}

// print writes the span file (when tracing), the context line and the
// result line.
func (r *run) print(w io.Writer) error {
	ms, err := r.metrics()
	if err != nil {
		return err
	}
	rc := runContext{
		Workload: r.cfg.workload, Seed: r.cfg.seed, Host: hostShape(),
		Rounds: len(r.rounds), Samples: r.samples(), MaxRSSMB: r.maxRSSMB(),
	}
	rc.Ops = len(r.opLatencies())
	rc.TailPct = tailPercentile(rc.Ops)
	if r.attempted > 0 {
		rc.FailFrac = float64(r.failed) / float64(r.attempted)
	}
	if r.cfg.trace {
		rc.Trace = 1
		rc.SpanFile = filepath.Join(r.cfg.work, fmt.Sprintf("spans-%s-seed%d.json", r.cfg.workload, r.cfg.seed))
		if err := r.tr.write(rc.SpanFile, rc); err != nil {
			return err
		}
	}
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range ms {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(rc); err != nil {
		return err
	}
	return enc.Encode(res)
}
