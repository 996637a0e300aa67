// Command benchab compares the benchmark of record (bench/) between a base
// revision and the working tree, in alternating pairs.
//
// Usage:
//
//	benchab [-base REV] [-pairs N] [-seed N] [-scratch DIR] workload...
//
// It checks the base revision (default HEAD^) out into a fresh clone under the
// scratch directory, so the base side builds from a clean tree of that commit.
// It builds each side's bench binary once, with `go build -trimpath` under
// bench/run.sh's environment (the build cache and temporary files in the
// checkout's .bench_build/), so two clean checkouts of one commit give
// byte-identical binaries, and then runs the binaries directly in their
// checkouts with `--workload W --seed S --trace 0`, at the benchmark's own run
// length. The clone shares the repository's object store and is removed when
// the comparison ends; it leaves nothing in the repository itself. Pair i uses
// the fresh seed seed+i on both sides, and the side that runs first alternates
// from pair to pair, so a drift in the host's speed lands on both sides
// equally. For each end-to-end metric that BENCHMARK.json declares, and for
// cpu_s, each run's process CPU time (user + system, which includes the
// children the run waited for, such as ilpd and its build), it prints each
// side's median [q1, q3], the per-pair change (change − base) / base as a
// median [q1, q3], how many pairs the change won (by the metric's declared
// direction), and whether the medians differ by more than the base side's
// quartile spread. Quartiles use the method of bench --runs (Python's
// statistics.quantiles, exclusive).
//
// Each run's CPU time and result line go to stderr as they arrive, so a
// long comparison can be followed and its raw numbers kept.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// metricDecl is one end-to-end metric of BENCHMARK.json.
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// result is the last line a bench run prints.
type result struct {
	Correct bool                   `json:"correct"`
	Failed  int                    `json:"failed"`
	Metrics map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
}

// pair holds one pair's value of a metric on each side.
type pair struct{ base, change float64 }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "HEAD^", "git revision to compare the working tree against")
	pairs := fs.Int("pairs", 10, "alternating base/change pairs per workload")
	seed := fs.Int64("seed", 1, "seed of the first pair; pair i uses seed+i on both sides")
	scratch := fs.String("scratch", os.TempDir(), "directory to check the base revision out under")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 || *pairs < 1 {
		fmt.Fprintln(stderr, "usage: benchab [-base REV] [-pairs N ≥ 1] [-seed N] [-scratch DIR] workload...")
		return 2
	}
	root, err := gitOutput("", "rev-parse", "--show-toplevel")
	if err != nil {
		fmt.Fprintln(stderr, "benchab:", err)
		return 1
	}
	decls, err := readDecls(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "benchab:", err)
		return 1
	}
	rev, err := gitOutput(root, "rev-parse", "--short", "--verify", *base+"^{commit}")
	if err != nil {
		fmt.Fprintln(stderr, "benchab:", err)
		return 1
	}
	baseDir, err := checkout(root, rev, *scratch)
	if err != nil {
		fmt.Fprintln(stderr, "benchab:", err)
		return 1
	}
	defer os.RemoveAll(baseDir)
	fmt.Fprintf(stderr, "benchab: base %s checked out in %s\n", rev, baseDir)
	names := [2]string{"base", "change"}
	var sides [2]side
	for k, dir := range [2]string{baseDir, root} {
		if sides[k], err = build(dir); err != nil {
			fmt.Fprintln(stderr, "benchab:", err)
			return 1
		}
	}

	decls = append(decls, metricDecl{Name: "cpu_s", Unit: "s", Better: "lower"})
	for _, w := range fs.Args() {
		values := map[string][]pair{}
		for i := 0; i < *pairs; i++ {
			s := *seed + int64(i)
			order := []int{0, 1}
			if i%2 == 1 {
				order[0], order[1] = 1, 0
			}
			var got [2]result
			for _, k := range order {
				res, line, err := sides[k].run(w, s)
				if err != nil {
					fmt.Fprintf(stderr, "benchab: %s seed %d in %s: %v\n", w, s, sides[k].dir, err)
					return 1
				}
				got[k] = res
				fmt.Fprintf(stderr, "benchab: %s pair %d seed %d %s: cpu %.2f s %s\n",
					w, i+1, s, names[k], res.Metrics["cpu_s"].Value, line)
			}
			for _, d := range decls {
				b, okB := got[0].Metrics[d.Name]
				c, okC := got[1].Metrics[d.Name]
				if okB && okC {
					values[d.Name] = append(values[d.Name], pair{b.Value, c.Value})
				}
			}
		}
		printTable(stdout, w, rev, decls, values)
	}
	return 0
}

// gitOutput runs git in dir and returns its trimmed stdout.
func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var errb bytes.Buffer
	cmd.Stderr = &errb
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// checkout clones the repository at root into a fresh directory under
// scratch, sharing root's object store, and checks rev out there detached.
// The caller removes the directory.
func checkout(root, rev, scratch string) (string, error) {
	dir, err := os.MkdirTemp(scratch, "benchab-"+rev+"-")
	if err != nil {
		return "", err
	}
	if _, err = gitOutput("", "clone", "--quiet", "--shared", "--no-checkout", root, dir); err == nil {
		_, err = gitOutput(dir, "checkout", "--quiet", "--detach", rev)
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	return dir, nil
}

// side is one checkout's bench binary and the environment it runs in.
type side struct {
	dir, bin string
	env      []string
}

// build builds the bench binary of the checkout at dir once, under
// bench/run.sh's environment: the Go build cache, temporary files and
// configuration in dir's .bench_build/, the local toolchain and no module
// proxy. The runs keep that environment, so daemon-mixed builds its ilpd
// with the checkout's own cache as it does under run.sh. -trimpath leaves
// the checkout's path out of the binary.
func build(dir string) (side, error) {
	out := filepath.Join(dir, ".bench_build")
	if err := os.MkdirAll(filepath.Join(out, "tmp"), 0o755); err != nil {
		return side{}, err
	}
	sd := side{dir: dir, bin: filepath.Join(out, "bench"), env: append(os.Environ(),
		"GOCACHE="+filepath.Join(out, "gocache"), "GOPATH="+filepath.Join(out, "gopath"),
		"GOTMPDIR="+filepath.Join(out, "tmp"), "TMPDIR="+filepath.Join(out, "tmp"),
		"XDG_CONFIG_HOME="+filepath.Join(out, "config"), "GOTOOLCHAIN=local", "GOPROXY=off")}
	cmd := exec.Command("go", "build", "-trimpath", "-o", sd.bin, ".")
	cmd.Dir = filepath.Join(dir, "bench")
	cmd.Env = sd.env
	if b, err := cmd.CombinedOutput(); err != nil {
		return side{}, fmt.Errorf("building bench in %s: %v: %s", dir, err, lastLine(string(b)))
	}
	return sd, nil
}

// run runs the side's bench binary once in its checkout and returns the
// parsed result line, with the process's CPU time added as cpu_s.
func (sd side) run(workload string, seed int64) (result, string, error) {
	cmd := exec.Command(sd.bin, "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--trace", "0")
	cmd.Dir = sd.dir
	cmd.Env = sd.env
	var errb bytes.Buffer
	cmd.Stderr = &errb
	out, err := cmd.Output()
	if err != nil {
		return result{}, "", fmt.Errorf("%v: %s", err, lastLine(errb.String()))
	}
	line := lastLine(string(out))
	res, err := parseResult(line)
	if err != nil {
		return res, line, err
	}
	if res.Metrics == nil {
		res.Metrics = map[string]metricValue{}
	}
	ps := cmd.ProcessState
	res.Metrics["cpu_s"] = metricValue{(ps.UserTime() + ps.SystemTime()).Seconds()}
	return res, line, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// parseResult parses a bench result line; a run whose own checks failed is
// an error, not a number to compare.
func parseResult(line string) (result, error) {
	var res result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		return res, fmt.Errorf("unreadable result line %q: %v", line, err)
	}
	if !res.Correct || res.Failed > 0 {
		return res, fmt.Errorf("run failed its own checks: %s", line)
	}
	return res, nil
}

// readDecls reads the end-to-end metric declarations of BENCHMARK.json.
func readDecls(path string) ([]metricDecl, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d struct {
		EndToEnd []metricDecl `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return d.EndToEnd, nil
}

// summary is one metric's comparison over its pairs.
type summary struct {
	base, change, delta [3]float64 // median, q1, q3; delta is the per-pair change
	won, n              int
	beyondSpread        bool // |median(change) − median(base)| > q3 − q1 of base
}

// summarize compares one metric's pairs; lower says lower values are
// better.
func summarize(ps []pair, lower bool) summary {
	var s summary
	var bs, cs, ds []float64
	for _, p := range ps {
		bs = append(bs, p.base)
		cs = append(cs, p.change)
		ds = append(ds, (p.change-p.base)/p.base)
		if (lower && p.change < p.base) || (!lower && p.change > p.base) {
			s.won++
		}
	}
	s.n = len(ps)
	s.base = stats(bs)
	s.change = stats(cs)
	s.delta = stats(ds)
	s.beyondSpread = math.Abs(s.change[0]-s.base[0]) > s.base[2]-s.base[1]
	return s
}

func stats(xs []float64) [3]float64 {
	q1, q3 := quartiles(xs)
	return [3]float64{median(xs), q1, q3}
}

// median is bench's median: the middle value, or the mean of the two
// middle values.
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

// quartiles are bench --runs' quartiles: Python's statistics.quantiles(xs,
// n=4), the exclusive method.
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

// printTable prints one workload's comparison.
func printTable(w io.Writer, workload, rev string, decls []metricDecl, values map[string][]pair) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s vs %s\tunit\tbase median [q1, q3]\tchange median [q1, q3]\tper-pair change [q1, q3]\twon\tbeyond base spread\t\n", workload, rev)
	for _, d := range decls {
		ps := values[d.Name]
		if len(ps) == 0 {
			continue
		}
		s := summarize(ps, d.Better == "lower")
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%% [%+.1f%%, %+.1f%%]\t%d/%d\t%v\t\n",
			d.Name, d.Unit,
			s.base[0], s.base[1], s.base[2],
			s.change[0], s.change[1], s.change[2],
			100*s.delta[0], 100*s.delta[1], 100*s.delta[2],
			s.won, s.n, s.beyondSpread)
	}
	tw.Flush()
}
