package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ilp/internal/benchmarks"
	"ilp/internal/experiments"
)

// ilpd is a running cmd/ilpd child process.
type ilpd struct {
	cmd     *exec.Cmd
	url     string
	client  *http.Client
	done    chan struct{} // closed once the process has exited
	waitErr error
}

// buildIlpd builds cmd/ilpd from the checkout's sources into the scratch
// directory.
func buildIlpd(ctx context.Context, cfg config) (string, error) {
	bin := filepath.Join(cfg.work, "ilpd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/ilpd")
	cmd.Dir = cfg.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/ilpd: %w", err)
	}
	return bin, nil
}

// firstLine passes the first line written to it to ch and drops the rest.
type firstLine struct {
	buf []byte
	ch  chan<- string
}

func (w *firstLine) Write(p []byte) (int, error) {
	if w.ch != nil {
		w.buf = append(w.buf, p...)
		if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
			w.ch <- string(w.buf[:i])
			w.ch = nil
		}
	}
	return len(p), nil
}

// startIlpd spawns the daemon on a free loopback port and returns once
// /readyz answers 200, under an ilpd.ready span.
func startIlpd(tr *tracer, bin string) (*ilpd, error) {
	sp := tr.begin(-1, "ilpd.ready")
	defer tr.end(sp)
	addr := make(chan string, 1)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers))
	cmd.Stdout = &firstLine{ch: addr}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &ilpd{
		cmd:    cmd,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}},
		done:   make(chan struct{}),
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	select {
	case line := <-addr:
		d.url = "http://" + strings.TrimPrefix(line, "ilpd: listening on ")
	case <-d.done:
		return nil, fmt.Errorf("ilpd exited before listening: %v", d.waitErr)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("ilpd did not report its address within 30 s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("ilpd not ready within 30 s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop terminates the daemon, waits for it to exit, and returns its peak
// resident memory in MB.
func (d *ilpd) stop() float64 {
	hwm := vmHWM(d.cmd.Process.Pid)
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	return hwm
}

// vmHWM is a live process's peak resident set in MB (0 if unreadable).
func vmHWM(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

func (d *ilpd) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, err
}

// daemonCounters are the daemon's runner counters and heap totals.
type daemonCounters struct {
	sims, simHits, instructions int64
	totalAlloc, mallocs         uint64
}

func (d *ilpd) counters(ctx context.Context) (daemonCounters, error) {
	var c daemonCounters
	b, err := d.get(ctx, "/v1/stats")
	if err != nil {
		return c, err
	}
	var st struct {
		Runner experiments.RunnerStats `json:"runner"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return c, err
	}
	c.sims, c.simHits, c.instructions = st.Runner.Sims, st.Runner.SimHits, st.Runner.Instructions
	if b, err = d.get(ctx, "/debug/pprof/heap?debug=1"); err != nil {
		return c, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			c.totalAlloc, err = strconv.ParseUint(v, 10, 64)
		} else if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			c.mallocs, err = strconv.ParseUint(v, 10, 64)
		}
		if err != nil {
			return c, err
		}
	}
	if c.totalAlloc == 0 || c.mallocs == 0 {
		return c, errors.New("no heap totals in /debug/pprof/heap?debug=1")
	}
	return c, nil
}

// sweepReq is a POST /v1/sweeps body.
type sweepReq struct {
	Experiments []string `json:"experiments"`
	Benchmarks  []string `json:"benchmarks"`
	Degree      int      `json:"degree"`
}

// reply is what one request got back.
type reply struct {
	status        int    // of the submission
	text          string // the rendered tables, as ilpbench prints them
	done          bool   // the stream ended in a clean "done" event
	cells, cached int
}

// sweep submits req, then reads its event stream to the done event. Its
// span is named ilpd.sweep.cold when any cell was simulated live for it,
// ilpd.sweep.warm otherwise.
func (d *ilpd) sweep(ctx context.Context, tr *tracer, req sweepReq, n int) (rp reply, err error) {
	sp := tr.beginReq(-1, "ilpd.sweep", n)
	name := "ilpd.sweep.failed"
	defer func() { tr.endAs(sp, name) }()

	sub := tr.beginReq(sp, "ilpd.submit", n)
	var events string
	rp.status, events, err = d.submit(ctx, req)
	tr.end(sub)
	if rp.status != http.StatusAccepted || err != nil {
		return rp, err
	}

	stream := tr.beginReq(sp, "ilpd.stream", n)
	defer tr.end(stream)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+events, nil)
	if err != nil {
		return rp, err
	}
	resp, err := d.client.Do(hreq)
	if err != nil {
		return rp, err
	}
	defer resp.Body.Close()
	var text strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var ev struct {
			Type, Experiment, Title, Text, State string
			Cached                               bool
			Failed                               []string
			Degraded                             int `json:"degraded_cells"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return rp, err
		}
		switch ev.Type {
		case "cell":
			rp.cells++
			if ev.Cached {
				rp.cached++
			}
		case "experiment":
			fmt.Fprintf(&text, "==== %s: %s ====\n\n%s\n", ev.Experiment, ev.Title, ev.Text)
		case "done":
			rp.text = text.String()
			rp.done = ev.State == "done" && len(ev.Failed) == 0 && ev.Degraded == 0
			name = "ilpd.sweep.warm"
			if rp.cached < rp.cells {
				name = "ilpd.sweep.cold"
			}
			io.Copy(io.Discard, resp.Body)
			return rp, nil
		}
	}
	if err := sc.Err(); err != nil {
		return rp, err
	}
	return rp, errors.New("event stream ended without a done event")
}

// submit posts req and returns the answer's status and, when accepted, the
// path of the sweep's event stream.
func (d *ilpd) submit(ctx context.Context, req sweepReq) (int, string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, "", err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(hreq)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var acc struct {
		Events string `json:"events"`
	}
	if resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&acc)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, acc.Events, err
}

// daemonExperiments are the experiments the daemon menu draws on: those
// whose every cell is cached, so that a repeated request is cheap. fig4-6
// ignores the benchmark subset, ext-limits and ext-slack recompute their
// analyses on every request, and fig2, fig4-2 and fig4-3 simulate nothing.
var daemonExperiments = []string{"tab2-1", "fig4-1", "fig4-4", "fig4-5", "fig4-7", "fig4-8", "tab5-1",
	"sec5-1", "abl-branch", "abl-temps", "abl-sched", "abl-memdep", "ext-conflicts", "ext-vliw", "ext-icache"}

// daemonMenu is the fixed set of up to 64 distinct requests: each
// experiment over a window of one to three benchmarks at degree 2, 4 or 8.
func daemonMenu(cfg config) []sweepReq {
	names := cfg.benches
	if names == nil {
		names = benchmarks.Names()
	}
	var degrees []int
	for _, d := range []int{2, 4, 8} {
		if d <= cfg.degree {
			degrees = append(degrees, d)
		}
	}
	if degrees == nil {
		degrees = []int{cfg.degree}
	}
	seen := map[string]bool{}
	var menu []sweepReq
	for i := 0; i < 64; i++ {
		bs := make([]string, min(1+(i/5)%3, len(names)))
		for j := range bs {
			bs[j] = names[(i*3+j)%len(names)]
		}
		sort.Strings(bs)
		req := sweepReq{
			Experiments: []string{daemonExperiments[i%len(daemonExperiments)]},
			Benchmarks:  bs,
			Degree:      degrees[(i/len(daemonExperiments))%len(degrees)],
		}
		if key := fmt.Sprint(req); !seen[key] {
			seen[key] = true
			menu = append(menu, req)
		}
	}
	return menu
}

// daemonScript draws n requests over a menu of m entries. Entry k is first
// requested at position k·(n/m), so exactly m requests find nothing cached
// (a cold share of m/n). Every other request repeats an entry already
// requested, drawn by Zipf popularity (exponent 1, entry k ranked k+1).
// The seed draws only the sequence: the cold requests, their spacing and
// the popularity of each entry stay the same, so runs with different seeds
// do comparable work.
func daemonScript(seed int64, m, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	cum := make([]float64, m) // cumulative popularity in menu order
	total := 0.0
	for k := range cum {
		total += 1 / float64(k+1)
		cum[k] = total
	}
	gap := max(n/m, 1)
	script := make([]int, n)
	next := 0 // entries requested so far
	for i := range script {
		if next < m && i == next*gap {
			script[i] = next
			next++
			continue
		}
		script[i] = sort.SearchFloat64s(cum[:next], rng.Float64()*cum[next-1])
	}
	return script
}

// served is the outcome of a script run against a daemon.
type served struct {
	replies []reply
	errs    []error
	lat     []float64 // ms
	wall    time.Duration
	before  daemonCounters
	after   daemonCounters
}

// serve runs script against d from two closed-loop clients: each sends its
// next request once the previous one's stream has ended.
func serve(ctx context.Context, tr *tracer, d *ilpd, menu []sweepReq, script []int) (*served, error) {
	s := &served{replies: make([]reply, len(script)), errs: make([]error, len(script)), lat: make([]float64, len(script))}
	var err error
	if s.before, err = d.counters(ctx); err != nil {
		return nil, err
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int(next.Add(1)) - 1; n < len(script); n = int(next.Add(1)) - 1 {
				t := time.Now()
				s.replies[n], s.errs[n] = d.sweep(ctx, tr, menu[script[n]], n+1)
				s.lat[n] = millis(time.Since(t))
			}
		}()
	}
	wg.Wait()
	s.wall = time.Since(start)
	if s.after, err = d.counters(ctx); err != nil {
		return nil, err
	}
	rejected, cells, cached := 0, 0, 0
	for _, rp := range s.replies {
		if rp.status == http.StatusTooManyRequests {
			rejected++
		}
		cells += rp.cells
		cached += rp.cached
	}
	tr.count("ilpd.live_sims", float64(s.after.sims-s.before.sims))
	tr.count("ilpd.sim_hits", float64(s.after.simHits-s.before.simHits))
	tr.count("ilpd.rejected_429", float64(rejected))
	tr.count("ilpd.cells", float64(cells))
	tr.count("ilpd.cells_cached", float64(cached))
	return s, nil
}

// daemonMixed is the serving layer: ilpd built from the checkout, then
// rounds that each spawn a fresh daemon and run the seed's 2000-request
// script from closed-loop clients over a menu where about 3% of requests are
// cold. Set-up is spawn to /readyz 200. Every reply must equal the first
// reply to the same request; after the rounds each distinct request is
// rendered again on a fresh in-process runner and compared with that first
// reply. A round is one script; alloc_mb, allocs_m and max_rss_mb are the
// daemon's.
func daemonMixed(ctx context.Context, r *run) error {
	bin, err := buildIlpd(ctx, r.cfg)
	if err != nil {
		return err
	}
	for r.moreSetups() {
		var d *ilpd
		if err := r.setup(func() (err error) { d, err = startIlpd(r.tr, bin); return err }); err != nil {
			return err
		}
		d.stop()
	}
	menu := daemonMenu(r.cfg)
	script := daemonScript(r.cfg.seed, len(menu), r.cfg.requests)
	first := map[int]string{} // the first reply to each menu entry
	err = r.loop(func(int) error {
		d, err := startIlpd(nil, bin)
		if err != nil {
			return err
		}
		s, err := serve(ctx, r.tr, d, menu, script)
		r.childRSSMB = max(r.childRSSMB, d.stop())
		if err != nil {
			return err
		}
		r.cur = roundStat{s.wall, s.after.totalAlloc - s.before.totalAlloc, s.after.mallocs - s.before.mallocs, s.lat}
		r.instr += s.after.instructions - s.before.instructions
		r.simSecs += s.wall.Seconds()
		for n, k := range script {
			rp := s.replies[n]
			switch {
			case s.errs[n] != nil:
				r.op(false, "request %d: %v", n+1, s.errs[n])
			case rp.status != http.StatusAccepted:
				r.op(false, "request %d: submission answered %d", n+1, rp.status)
			case !rp.done:
				r.op(false, "request %d: sweep did not finish cleanly", n+1)
			default:
				if _, ok := first[k]; !ok {
					first[k] = rp.text
				}
				r.op(rp.text == first[k], "request %d %v: reply differs from the first reply to the same request", n+1, menu[k])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ref := experiments.NewRunner(experiments.Config{Workers: workers})
	for k, req := range menu {
		got, ok := first[k]
		if !ok {
			continue
		}
		res, err := ref.WithSweep(req.Degree, req.Benchmarks).RunCtx(ctx, req.Experiments[0])
		if err != nil {
			return fmt.Errorf("rendering %v in process: %w", req, err)
		}
		r.op(got == render(res), "%v: reply differs from an in-process render", req)
	}
	return nil
}
