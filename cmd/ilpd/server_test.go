package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ilp/internal/experiments"
)

// testConfig is a small, fast daemon configuration: unmetered budgets (the
// tests that want budget enforcement set one explicitly) and a short but
// safe default timeout.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.DefaultBudget = 0
	cfg.DefaultTimeout = time.Minute
	cfg.Workers = 2
	return cfg
}

// newTestServer boots an in-process daemon on an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(cfg, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func postSweep(t *testing.T, base string, req SweepRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// submit posts a sweep and returns its id, failing the test on anything
// but 202.
func submit(t *testing.T, base string, req SweepRequest) string {
	t.Helper()
	code, body := postSweep(t, base, req)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: %d: %s", code, body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &acc); err != nil || acc.ID == "" {
		t.Fatalf("bad accept body %s: %v", body, err)
	}
	return acc.ID
}

func getStatus(t *testing.T, base, id string) sweepStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/sweeps/%s: %d", id, resp.StatusCode)
	}
	var st sweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitDone polls a sweep to a terminal state.
func waitDone(t *testing.T, base, id string) sweepStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := getStatus(t, base, id)
		if st.State != stateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still running after 2m", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// smallReq is the cheapest real sweep: one experiment, one benchmark,
// degree 2.
var smallReq = SweepRequest{
	Experiments: []string{"tab2-1"},
	Benchmarks:  []string{"whet"},
	Degree:      2,
}

// TestSweepRendersLikeIlpbench: the daemon's rendered output for a request
// is byte-identical to what the ilpbench CLI prints for the equivalent
// flags — the daemon is a transport, not a different renderer.
func TestSweepRendersLikeIlpbench(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	id := submit(t, ts.URL, smallReq)
	st := waitDone(t, ts.URL, id)
	if st.State != stateDone {
		t.Fatalf("sweep ended %s: %s", st.State, st.Error)
	}

	ref := experiments.NewRunner(experiments.Config{
		MaxDegree: smallReq.Degree, Benchmarks: smallReq.Benchmarks, Workers: 2,
	})
	res, err := ref.RunCtx(context.Background(), "tab2-1")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("==== %s: %s ====\n\n%s\n", res.ID, res.Title, res.Text)
	if st.Rendered != want {
		t.Errorf("daemon rendering differs from ilpbench:\ndaemon:\n%s\nreference:\n%s", st.Rendered, want)
	}
	if len(st.Tables) != 1 || st.Tables[0].ID != "tab2-1" || st.Tables[0].Text != res.Text {
		t.Errorf("tables payload wrong: %+v", st.Tables)
	}
	if st.Cells == 0 || st.Instructions == 0 {
		t.Errorf("sweep accounting empty: %+v cells, %d instructions", st.Cells, st.Instructions)
	}
}

// TestValidationRejects: malformed and over-cap requests are 400s that
// never reach the runner, each counted in the stats.
func TestValidationRejects(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBudget = 1000
	srv, ts := newTestServer(t, cfg)
	cases := []struct {
		name string
		req  SweepRequest
		want string
	}{
		{"unknown experiment", SweepRequest{Experiments: []string{"tab9-9"}}, "unknown experiment"},
		{"unknown benchmark", SweepRequest{Benchmarks: []string{"specint"}}, "unknown benchmark"},
		{"degree beyond cap", SweepRequest{Degree: 64}, "out of range"},
		{"negative degree", SweepRequest{Degree: -1}, "out of range"},
		{"malformed timeout", SweepRequest{Timeout: "soon"}, "bad timeout"},
		{"non-positive timeout", SweepRequest{Timeout: "-1s"}, "must be positive"},
		{"timeout beyond cap", SweepRequest{Timeout: "48h"}, "exceeds the server cap"},
		{"negative budget", SweepRequest{Budget: -5}, "budget -5 must be"},
		{"budget beyond cap", SweepRequest{Budget: 100000}, "exceeds the server cap"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postSweep(t, ts.URL, tc.req)
			if code != http.StatusBadRequest {
				t.Fatalf("got %d, want 400: %s", code, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Errorf("error body %s does not mention %q", body, tc.want)
			}
			if got := srv.statsSnapshot().RejectedInvalid; got != i+1 {
				t.Errorf("rejected_invalid = %d, want %d", got, i+1)
			}
		})
	}

	// An unknown JSON field is a client error too (schema drift surfaces
	// loudly instead of being ignored).
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"experiment": ["tab2-1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field accepted: %d", resp.StatusCode)
	}
}

// statsSnapshot reads the server counters the way the handler does.
func (s *Server) statsSnapshot() serverStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// TestAdmissionControl: at the inflight cap, POST is 429 with Retry-After;
// below it, 202. The counter is forced directly so the test is
// deterministic; bench's daemon-mixed workload drives the organic path.
func TestAdmissionControl(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSweeps = 2
	srv, ts := newTestServer(t, cfg)

	srv.mu.Lock()
	srv.stats.Inflight = cfg.MaxSweeps
	srv.mu.Unlock()

	body, _ := json.Marshal(smallReq)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("at the cap: got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if srv.statsSnapshot().RejectedBusy != 1 {
		t.Errorf("rejected_busy = %d, want 1", srv.statsSnapshot().RejectedBusy)
	}

	srv.mu.Lock()
	srv.stats.Inflight = 0
	srv.mu.Unlock()
	id := submit(t, ts.URL, smallReq)
	if st := waitDone(t, ts.URL, id); st.State != stateDone {
		t.Fatalf("post-cap sweep ended %s: %s", st.State, st.Error)
	}
}

// TestConcurrentSweepsSingleflight is the acceptance check for the shared
// cache: two identical sweeps submitted concurrently perform exactly as
// many live simulations as ONE sweep of that request does on a fresh
// runner — every cell the second sweep needs either joins the first
// sweep's in-flight entry or hits the cache, never a duplicate
// simulation. Verified through /v1/stats, the same numbers an operator
// would read.
func TestConcurrentSweepsSingleflight(t *testing.T) {
	// Reference: live sims for this request on a fresh runner.
	ref := experiments.NewRunner(experiments.Config{
		MaxDegree: smallReq.Degree, Benchmarks: smallReq.Benchmarks, Workers: 2,
	})
	if _, err := ref.RunCtx(context.Background(), "tab2-1"); err != nil {
		t.Fatal(err)
	}
	wantSims := ref.Stats().Sims
	if wantSims == 0 {
		t.Fatal("reference run performed no simulations")
	}

	_, ts := newTestServer(t, testConfig())
	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = submit(t, ts.URL, smallReq)
		}()
	}
	wg.Wait()
	var totalCells int
	for _, id := range ids {
		st := waitDone(t, ts.URL, id)
		if st.State != stateDone {
			t.Fatalf("sweep %s ended %s: %s", id, st.State, st.Error)
		}
		totalCells += st.Cells
	}

	stats := fetchStatsT(t, ts.URL)
	if stats.Runner.Sims != wantSims {
		t.Errorf("daemon performed %d live sims for two identical sweeps, want %d (singleflight)",
			stats.Runner.Sims, wantSims)
	}
	if int64(totalCells) != 2*wantSims {
		t.Errorf("observers saw %d cells across both sweeps, want %d", totalCells, 2*wantSims)
	}
	if stats.Server.Submitted != 2 || stats.Server.Completed != 2 || stats.Server.Inflight != 0 {
		t.Errorf("server accounting wrong: %+v", stats.Server)
	}
}

func fetchStatsT(t *testing.T, base string) statsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", resp.StatusCode)
	}
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEventsStream: the NDJSON stream replays history and follows the
// sweep to its done event; seq is dense, cell events match the status
// accounting, and the experiment event carries the rendered text.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	id := submit(t, ts.URL, smallReq)

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d (stream must be dense and ordered)", i, ev.Seq)
		}
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.State != stateDone {
		t.Fatalf("stream did not end with a done event: %+v", last)
	}

	st := getStatus(t, ts.URL, id)
	var cells, exps int
	for _, ev := range events {
		switch ev.Type {
		case "cell":
			cells++
			if ev.Benchmark == "" || ev.Machine == "" || ev.Fingerprint == "" {
				t.Errorf("cell event missing attribution: %+v", ev)
			}
		case "experiment":
			exps++
			if ev.Experiment != "tab2-1" || ev.Text == "" {
				t.Errorf("experiment event wrong: %+v", ev)
			}
		}
	}
	if cells != st.Cells {
		t.Errorf("stream carried %d cell events, status says %d cells", cells, st.Cells)
	}
	if exps != 1 || last.Cells != st.Cells {
		t.Errorf("stream summary mismatch: %d experiments, done.Cells=%d, status.Cells=%d",
			exps, last.Cells, st.Cells)
	}
}

// TestClientCancel: DELETE on a running sweep drives it to the failed
// state with a cause naming the client.
func TestClientCancel(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	// The full default sweep (every experiment, degree 8) takes several
	// seconds — the DELETE lands long before it finishes.
	id := submit(t, ts.URL, SweepRequest{})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	st := waitDone(t, ts.URL, id)
	if st.State != stateFailed {
		t.Fatalf("cancelled sweep ended %s", st.State)
	}
	if !strings.Contains(st.Error, "cancelled by client") {
		t.Errorf("cancellation cause lost: %q", st.Error)
	}
}

// TestInstructionBudget: a request with a tiny budget fails with the
// budget-exceeded cause; the same request unbudgeted succeeds.
func TestInstructionBudget(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	req := smallReq
	req.Budget = 1
	id := submit(t, ts.URL, req)
	st := waitDone(t, ts.URL, id)
	if st.State != stateFailed || !strings.Contains(st.Error, "budget") {
		t.Fatalf("budget-1 sweep: state %s, error %q", st.State, st.Error)
	}
	if st.Budget != 1 {
		t.Errorf("status budget = %d, want 1", st.Budget)
	}

	id = submit(t, ts.URL, smallReq)
	if st := waitDone(t, ts.URL, id); st.State != stateDone {
		t.Fatalf("unbudgeted rerun ended %s: %s", st.State, st.Error)
	}
}

// TestRequestTimeout: a request-level deadline cancels the sweep.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	req := smallReq
	req.Timeout = "1ns"
	id := submit(t, ts.URL, req)
	st := waitDone(t, ts.URL, id)
	if st.State != stateFailed {
		t.Fatalf("1ns sweep ended %s", st.State)
	}
}

// TestNotFound: unknown sweep ids are 404 on every per-sweep route.
func TestNotFound(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for _, path := range []string{"/v1/sweeps/s-999999", "/v1/sweeps/s-999999/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestListSweeps: the list endpoint returns every submitted sweep in
// submission order, without the heavyweight rendered payload.
func TestListSweeps(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	id1 := submit(t, ts.URL, smallReq)
	waitDone(t, ts.URL, id1)
	id2 := submit(t, ts.URL, smallReq)
	waitDone(t, ts.URL, id2)

	resp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Sweeps []sweepStatus `json:"sweeps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 2 || list.Sweeps[0].ID != id1 || list.Sweeps[1].ID != id2 {
		t.Fatalf("list wrong: %+v", list.Sweeps)
	}
	for _, st := range list.Sweeps {
		if st.Rendered != "" || st.Tables != nil {
			t.Errorf("list leaked the rendered payload for %s", st.ID)
		}
	}
}

// TestStatsEndpoint: /v1/stats merges runner counters, the sweep report,
// and server accounting.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	id := submit(t, ts.URL, smallReq)
	waitDone(t, ts.URL, id)
	st := fetchStatsT(t, ts.URL)
	if st.Runner.Sims == 0 {
		t.Error("runner sims missing from stats")
	}
	if st.Runner.Lowers == 0 || st.Runner.Lowers > st.Runner.Compiles {
		t.Errorf("runner lowerings missing from stats: %d lowerings for %d compiles", st.Runner.Lowers, st.Runner.Compiles)
	}
	if st.Report.Cells == 0 {
		t.Error("sweep report missing from stats")
	}
	if st.Server.Submitted != 1 || st.Server.Completed != 1 {
		t.Errorf("server accounting wrong: %+v", st.Server)
	}

	// tab2-1's one cell recorded whet's path; fig4-1's cache-free cells of
	// the same front walk it.
	if st.Runner.Paths != 1 || st.Runner.Walks != 0 {
		t.Errorf("after tab2-1: %d paths, %d walks; want 1, 0", st.Runner.Paths, st.Runner.Walks)
	}
	id = submit(t, ts.URL, SweepRequest{Experiments: []string{"fig4-1"}, Benchmarks: []string{"whet"}, Degree: 2})
	waitDone(t, ts.URL, id)
	st = fetchStatsT(t, ts.URL)
	if st.Runner.Paths != 1 || st.Runner.Walks == 0 || st.Runner.Walks >= st.Runner.Sims {
		t.Errorf("after fig4-1: %d paths, %d walks for %d sims; want 1 path and 0 < walks < sims",
			st.Runner.Paths, st.Runner.Walks, st.Runner.Sims)
	}
	if st.Report.Paths != st.Runner.Paths || st.Report.Walks != st.Runner.Walks {
		t.Errorf("report carries %d paths, %d walks; runner %d, %d",
			st.Report.Paths, st.Report.Walks, st.Runner.Paths, st.Runner.Walks)
	}
}

// TestPprofExposed: the profiling index answers.
func TestPprofExposed(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index: %d", resp.StatusCode)
	}
}
