package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"ilp/internal/benchmarks"
	"ilp/internal/experiments"
	"ilp/internal/store"
)

// Config is the daemon's effective configuration: DefaultConfig with the
// command-line flags applied.
type Config struct {
	// Addr is the listen address.
	Addr string
	// StorePath, when non-empty, backs the shared runner with the durable
	// result store: committed cells survive restarts and preload the
	// cache on the next boot.
	StorePath string
	// Workers bounds concurrent simulations across all clients.
	Workers int
	// Retries / MaxBackoff / Degrade are the fault-tolerance policy of
	// the shared runner (see experiments.Config).
	Retries    int
	MaxBackoff time.Duration
	Degrade    bool

	// MaxSweeps caps concurrently running sweeps; submissions beyond it
	// are rejected 429 (admission control, not queueing — the client owns
	// the retry policy).
	MaxSweeps int
	// MaxDegree caps the per-request swept degree (400 beyond it).
	MaxDegree int
	// MaxBudget caps the per-request instruction budget (400 beyond it);
	// DefaultBudget applies when a request does not name one. Zero
	// MaxBudget disables budget admission; zero DefaultBudget means
	// unbudgeted requests run unmetered.
	MaxBudget     int64
	DefaultBudget int64
	// DefaultTimeout / MaxTimeout bound the per-request deadline.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DrainTimeout bounds the graceful-shutdown drain: in-flight sweeps
	// get this long to finish before they are cancelled.
	DrainTimeout time.Duration
}

// DefaultConfig returns the daemon defaults.
func DefaultConfig() Config {
	return Config{
		Addr:           ":7743",
		Workers:        0, // GOMAXPROCS
		Retries:        2,
		MaxBackoff:     250 * time.Millisecond,
		Degrade:        true,
		MaxSweeps:      4,
		MaxDegree:      16,
		MaxBudget:      100_000_000_000,
		DefaultBudget:  10_000_000_000,
		DefaultTimeout: 5 * time.Minute,
		MaxTimeout:     30 * time.Minute,
		DrainTimeout:   30 * time.Second,
	}
}

// SweepRequest is the POST /v1/sweeps body: which experiments to render,
// over which benchmarks and machine degrees, under what deadline and
// instruction budget. Empty lists mean "all, in paper order" — the same
// defaulting as the ilpbench CLI, so the rendered tables are byte-
// identical to its stdout.
type SweepRequest struct {
	// Experiments lists experiment ids (empty = every registered
	// experiment in the paper's canonical order).
	Experiments []string `json:"experiments,omitempty"`
	// Benchmarks restricts the suite (empty = all eight).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Degree is the machine axis: the maximum superscalar/superpipelined
	// degree swept (0 = the paper's 8).
	Degree int `json:"degree,omitempty"`
	// Timeout is the per-request deadline ("30s"; empty = server default).
	Timeout string `json:"timeout,omitempty"`
	// Budget caps the live simulated instructions this request may spend
	// (0 = server default). Cells served from the shared cache are free.
	Budget int64 `json:"budget,omitempty"`
}

// Table is one rendered experiment.
type Table struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Text  string `json:"text"`
}

// Event is one entry of a sweep's progress stream (NDJSON on
// GET /v1/sweeps/{id}/events). Type "cell" reports one measurement cell
// resolving; "experiment" one experiment rendering; "done" is terminal.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"`

	// cell fields
	Experiment   string `json:"experiment,omitempty"`
	Benchmark    string `json:"benchmark,omitempty"`
	Machine      string `json:"machine,omitempty"`
	Fingerprint  string `json:"fingerprint,omitempty"`
	Cached       bool   `json:"cached,omitempty"`
	Degraded     bool   `json:"degraded,omitempty"`
	Instructions int64  `json:"instructions,omitempty"`
	Error        string `json:"error,omitempty"`

	// experiment fields
	Title string `json:"title,omitempty"`
	Text  string `json:"text,omitempty"`

	// done fields
	State     string   `json:"state,omitempty"`
	Cells     int      `json:"cells,omitempty"`
	Degradeds int      `json:"degraded_cells,omitempty"`
	Failed    []string `json:"failed,omitempty"`
}

// sweep states.
const (
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// sweep is one submitted request and its accumulated progress. All mutable
// state is guarded by mu; changed is closed-and-replaced on every append so
// streamers can wait without polling.
type sweep struct {
	id     string
	req    SweepRequest
	ids    []string
	budget int64
	// cancel stops the sweep with a cause. It exists before the sweep is
	// published, so a DELETE can never find the sweep without it.
	cancel context.CancelCauseFunc

	mu           sync.Mutex
	changed      chan struct{}
	events       []Event
	tables       []Table
	rendered     strings.Builder
	state        string
	errMsg       string
	failed       []string
	cells        int
	cached       int
	degraded     int
	instructions int64
}

func (sw *sweep) appendLocked(ev Event) {
	ev.Seq = len(sw.events) + 1
	sw.events = append(sw.events, ev)
	close(sw.changed)
	sw.changed = make(chan struct{})
}

// onCell is the sweep's experiments.Observer: it runs on the runner's
// worker goroutines, so everything it touches is under sw.mu.
func (sw *sweep) onCell(ev experiments.CellEvent) {
	e := Event{
		Type: "cell", Experiment: ev.Experiment,
		Benchmark: ev.Benchmark, Machine: ev.Machine, Fingerprint: ev.Fingerprint,
		Cached: ev.Cached, Degraded: ev.Degraded, Instructions: ev.Instructions,
	}
	if ev.Err != nil {
		e.Error = ev.Err.Error()
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.cells++
	if ev.Cached {
		sw.cached++
	}
	if ev.Degraded {
		sw.degraded++
	}
	if !ev.Cached {
		sw.instructions += ev.Instructions
	}
	sw.appendLocked(e)
}

func (sw *sweep) addTable(tb Table) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.tables = append(sw.tables, tb)
	fmt.Fprintf(&sw.rendered, "==== %s: %s ====\n\n%s\n", tb.ID, tb.Title, tb.Text)
	sw.appendLocked(Event{Type: "experiment", Experiment: tb.ID, Title: tb.Title, Text: tb.Text})
}

// finalize records the terminal state and the done event atomically, so a
// streamer that observes a terminal state has the complete event log.
func (sw *sweep) finalize(state, errMsg string) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.state = state
	sw.errMsg = errMsg
	sw.appendLocked(Event{
		Type: "done", State: state, Error: errMsg,
		Cells: sw.cells, Degradeds: sw.degraded,
		Failed: append([]string(nil), sw.failed...),
	})
}

// sweepStatus is the GET /v1/sweeps/{id} body.
type sweepStatus struct {
	ID           string       `json:"id"`
	State        string       `json:"state"`
	Request      SweepRequest `json:"request"`
	Experiments  []string     `json:"experiments"`
	Cells        int          `json:"cells"`
	CachedCells  int          `json:"cached_cells"`
	Degraded     int          `json:"degraded_cells"`
	Instructions int64        `json:"instructions"`
	Budget       int64        `json:"budget"`
	Failed       []string     `json:"failed,omitempty"`
	Error        string       `json:"error,omitempty"`
	Tables       []Table      `json:"tables,omitempty"`
	Rendered     string       `json:"rendered,omitempty"`
}

func (sw *sweep) status(full bool) sweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := sweepStatus{
		ID: sw.id, State: sw.state, Request: sw.req, Experiments: sw.ids,
		Cells: sw.cells, CachedCells: sw.cached, Degraded: sw.degraded,
		Instructions: sw.instructions, Budget: sw.budget,
		Failed: append([]string(nil), sw.failed...), Error: sw.errMsg,
	}
	if full {
		st.Tables = append([]Table(nil), sw.tables...)
		st.Rendered = sw.rendered.String()
	}
	return st
}

// serverStats is the daemon half of GET /v1/stats.
type serverStats struct {
	Submitted       int  `json:"sweeps_submitted"`
	Completed       int  `json:"sweeps_completed"`
	Failed          int  `json:"sweeps_failed"`
	RejectedBusy    int  `json:"rejected_busy"`
	RejectedInvalid int  `json:"rejected_invalid"`
	RejectedDrain   int  `json:"rejected_draining"`
	Inflight        int  `json:"inflight"`
	Draining        bool `json:"draining"`
}

// Server is the ilpd daemon: one shared runner (singleflight caches, one
// worker pool, one optional durable store) serving every HTTP client.
type Server struct {
	cfg    Config
	runner *experiments.Runner
	st     *store.Store
	mux    *http.ServeMux

	// baseCtx parents every sweep; cancelling it is the hard kill.
	baseCtx  context.Context
	hardKill context.CancelFunc

	mu       sync.Mutex
	sweeps   map[string]*sweep
	order    []string
	nextID   int
	draining bool
	ready    bool
	stats    serverStats
	wg       sync.WaitGroup
}

// errDraining is the cancellation cause of sweeps cut short by an expired
// drain deadline.
var errDraining = errors.New("ilpd: server draining: sweep cancelled at the drain deadline")

// NewServer builds the daemon around one shared runner. st may be nil
// (no durability); when set, records already in the store preload the
// cache — the daemon always resumes, that is its point.
func NewServer(cfg Config, st *store.Store) *Server {
	base, kill := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg,
		runner: experiments.NewRunner(experiments.Config{
			Workers: cfg.Workers, Retries: cfg.Retries,
			MaxBackoff: cfg.MaxBackoff, Degrade: cfg.Degrade, Store: st,
		}),
		st:       st,
		mux:      http.NewServeMux(),
		baseCtx:  base,
		hardKill: kill,
		sweeps:   map[string]*sweep{},
	}
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleList)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SetReady flips the readiness gate. main calls it once the listener is
// accepting; orchestration probes see /readyz go true only then, so no
// traffic is routed to a daemon still opening its store.
func (s *Server) SetReady(ready bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ready = ready
}

// handleHealthz is liveness: the process is up and serving HTTP. It is
// deliberately unconditional — a draining daemon is still alive, and a
// liveness probe that fails during drain would get the process killed
// mid-flight, which is exactly what draining exists to avoid.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: true only between SetReady(true) and the
// start of the drain. Load balancers use it to stop routing new sweeps
// to a daemon that would only answer them with 503s.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ready, draining := s.ready, s.draining
	s.mu.Unlock()
	switch {
	case draining:
		httpError(w, http.StatusServiceUnavailable, "draining")
	case !ready:
		httpError(w, http.StatusServiceUnavailable, "starting")
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// validate resolves and bounds a request: unknown names, an out-of-range
// degree, a malformed or over-cap timeout, and an over-cap budget are all
// client errors (400). It returns the expanded experiment list and the
// effective timeout and budget.
func (s *Server) validate(req *SweepRequest) (ids []string, timeout time.Duration, budget int64, err error) {
	for _, id := range req.Experiments {
		if _, err := experiments.ByID(id); err != nil {
			return nil, 0, 0, fmt.Errorf("unknown experiment %q", id)
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	for _, b := range req.Benchmarks {
		if _, err := benchmarks.ByName(b); err != nil {
			return nil, 0, 0, fmt.Errorf("unknown benchmark %q", b)
		}
	}
	if req.Degree < 0 || req.Degree > s.cfg.MaxDegree {
		return nil, 0, 0, fmt.Errorf("degree %d out of range [0, %d]", req.Degree, s.cfg.MaxDegree)
	}
	timeout = s.cfg.DefaultTimeout
	if req.Timeout != "" {
		timeout, err = time.ParseDuration(req.Timeout)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("bad timeout %q: %v", req.Timeout, err)
		}
		if timeout <= 0 {
			return nil, 0, 0, fmt.Errorf("timeout %q must be positive", req.Timeout)
		}
	}
	if s.cfg.MaxTimeout > 0 && timeout > s.cfg.MaxTimeout {
		return nil, 0, 0, fmt.Errorf("timeout %v exceeds the server cap %v", timeout, s.cfg.MaxTimeout)
	}
	budget = req.Budget
	if budget < 0 {
		return nil, 0, 0, fmt.Errorf("budget %d must be >= 0", budget)
	}
	if budget == 0 {
		budget = s.cfg.DefaultBudget
	}
	if s.cfg.MaxBudget > 0 && budget > s.cfg.MaxBudget {
		return nil, 0, 0, fmt.Errorf("budget %d exceeds the server cap %d", budget, s.cfg.MaxBudget)
	}
	return ids, timeout, budget, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.countInvalid()
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	ids, timeout, budget, err := s.validate(&req)
	if err != nil {
		s.countInvalid()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.stats.RejectedDrain++
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server is draining; not admitting new sweeps")
		return
	}
	if s.stats.Inflight >= s.cfg.MaxSweeps {
		s.stats.RejectedBusy++
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "%d sweeps already in flight (cap %d); retry later", s.cfg.MaxSweeps, s.cfg.MaxSweeps)
		return
	}
	s.nextID++
	// The sweep's context exists before the 202 goes out, so a DELETE that
	// follows the reply always finds the sweep's cancel function.
	ctx, cancelTimeout := context.WithTimeout(s.baseCtx, timeout)
	ctx, cancel := context.WithCancelCause(ctx)
	sw := &sweep{
		id:  fmt.Sprintf("s-%06d", s.nextID),
		req: req, ids: ids, budget: budget,
		changed: make(chan struct{}),
		state:   stateRunning,
		cancel:  cancel,
	}
	s.sweeps[sw.id] = sw
	s.order = append(s.order, sw.id)
	s.stats.Submitted++
	s.stats.Inflight++
	s.wg.Add(1)
	s.mu.Unlock()

	go s.runSweep(ctx, sw, cancelTimeout)
	w.Header().Set("Location", "/v1/sweeps/"+sw.id)
	writeJSON(w, http.StatusAccepted, map[string]string{
		"id":     sw.id,
		"url":    "/v1/sweeps/" + sw.id,
		"events": "/v1/sweeps/" + sw.id + "/events",
	})
}

func (s *Server) countInvalid() {
	s.mu.Lock()
	s.stats.RejectedInvalid++
	s.mu.Unlock()
}

// runSweep drives one admitted sweep: the shared runner viewed through the
// request's sweep shape, under the request's deadline and instruction
// budget, streaming progress through the sweep's observer. Per-experiment
// failures are recorded and the sweep moves on (exactly like the ilpbench
// CLI); a cancellation — deadline, budget trip, client cancel, drain —
// stops it.
func (s *Server) runSweep(ctx context.Context, sw *sweep, cancelTimeout context.CancelFunc) {
	defer s.wg.Done()
	defer cancelTimeout()
	defer sw.cancel(context.Canceled)

	runCtx := experiments.WithObserver(ctx, sw.onCell)
	if sw.budget > 0 {
		var stop context.CancelFunc
		runCtx, stop = experiments.WithInstructionBudget(runCtx, sw.budget)
		defer stop()
	}

	runner := s.runner.WithSweep(sw.req.Degree, sw.req.Benchmarks)
	var cancelled error
	for _, id := range sw.ids {
		res, err := runner.RunCtx(runCtx, id)
		if err != nil {
			if runCtx.Err() != nil {
				cancelled = err
				break
			}
			sw.mu.Lock()
			sw.failed = append(sw.failed, id)
			sw.mu.Unlock()
			continue
		}
		sw.addTable(Table{ID: res.ID, Title: res.Title, Text: res.Text})
	}

	state, errMsg := stateDone, ""
	if cancelled != nil {
		state, errMsg = stateFailed, cancelled.Error()
	}
	sw.finalize(state, errMsg)

	s.mu.Lock()
	s.stats.Inflight--
	if state == stateDone {
		s.stats.Completed++
	} else {
		s.stats.Failed++
	}
	s.mu.Unlock()
}

func (s *Server) lookup(id string) *sweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweeps[id]
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(r.PathValue("id"))
	if sw == nil {
		httpError(w, http.StatusNotFound, "no such sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, sw.status(true))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]sweepStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.sweeps[id].status(false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": out})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(r.PathValue("id"))
	if sw == nil {
		httpError(w, http.StatusNotFound, "no such sweep %q", r.PathValue("id"))
		return
	}
	sw.cancel(fmt.Errorf("sweep %s cancelled by client", sw.id))
	writeJSON(w, http.StatusAccepted, map[string]string{"id": sw.id, "state": "cancelling"})
}

// handleEvents streams the sweep's progress as NDJSON: the history so far,
// then each new event as it commits, ending with the "done" event. The
// finalize path appends "done" and sets the terminal state under one lock,
// so a terminal snapshot always carries the full log.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(r.PathValue("id"))
	if sw == nil {
		httpError(w, http.StatusNotFound, "no such sweep %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		sw.mu.Lock()
		batch := append([]Event(nil), sw.events[next:]...)
		terminal := sw.state != stateRunning
		ch := sw.changed
		sw.mu.Unlock()
		for _, ev := range batch {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		next += len(batch)
		if len(batch) > 0 && fl != nil {
			fl.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

// statsResponse is the GET /v1/stats body: the shared runner's cache and
// fault-tolerance counters, the sweep-level report, and the daemon's own
// admission accounting.
type statsResponse struct {
	Runner experiments.RunnerStats `json:"runner"`
	Report experiments.SweepReport `json:"report"`
	Server serverStats             `json:"server"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := s.stats
	st.Draining = s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, statsResponse{
		Runner: s.runner.Stats(),
		Report: s.runner.Report(),
		Server: st,
	})
}

// Drain is the graceful-shutdown sequence: stop admitting (new POSTs get
// 503), wait for in-flight sweeps to finish until ctx expires, cancel the
// stragglers (they unwind within the simulator's polling interval), and
// compact the store so the next boot loads a deduplicated file. Safe to
// call once; the HTTP listener keeps serving status/stats/events reads
// throughout, so clients can collect partial results of cancelled sweeps.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for _, sw := range s.sweeps {
			sw.cancel(errDraining)
		}
		s.mu.Unlock()
		<-done
	}
	if s.st != nil {
		if err := s.st.Compact(); err != nil {
			return fmt.Errorf("compacting store on drain: %w", err)
		}
	}
	return nil
}

// Close hard-kills every sweep context. Call after Drain (or instead of
// it, when tearing down tests).
func (s *Server) Close() { s.hardKill() }
