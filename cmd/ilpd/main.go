// Command ilpd serves the paper's experiment sweeps as a long-running
// HTTP/JSON daemon: one shared experiments.Runner — singleflight caches,
// one worker pool, one optional durable store — behind a small REST API,
// so many clients can sweep concurrently and identical requests coalesce
// into one simulation.
//
// API:
//
//	POST   /v1/sweeps             submit a sweep (202 + id; 400 invalid,
//	                              429 at the admission cap, 503 draining)
//	GET    /v1/sweeps             list submitted sweeps
//	GET    /v1/sweeps/{id}        status + rendered tables (byte-identical
//	                              to ilpbench stdout)
//	DELETE /v1/sweeps/{id}        cancel a running sweep
//	GET    /v1/sweeps/{id}/events stream progress as NDJSON: one line per
//	                              resolved cell, per rendered experiment,
//	                              then a terminal "done" line
//	GET    /v1/stats              runner cache/fault counters + sweep report
//	                              + daemon admission accounting
//	GET    /debug/pprof/          live profiling
//
// Every sweep runs under a per-request deadline and instruction budget
// (server-capped); cells served from the shared cache are free against the
// budget. SIGINT/SIGTERM drains gracefully: new submissions get 503,
// in-flight sweeps get -drain-timeout to finish before they are cancelled,
// the store is compacted, and the process exits 0. A second signal kills
// immediately.
//
// Configuration is flags only, each defaulting to DefaultConfig's value.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ilp/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// validateConfig rejects configurations that would admit nothing or spin:
// the same "usage error, not a request" policy as the ilpbench CLI.
func validateConfig(cfg Config) error {
	if cfg.MaxSweeps <= 0 {
		return fmt.Errorf("max-sweeps must be positive (have %d)", cfg.MaxSweeps)
	}
	if cfg.MaxDegree <= 0 {
		return fmt.Errorf("max-degree must be positive (have %d)", cfg.MaxDegree)
	}
	if cfg.Retries < 0 {
		return fmt.Errorf("retries must be >= 0 (have %d)", cfg.Retries)
	}
	if cfg.MaxBackoff < 0 {
		return fmt.Errorf("max-backoff must be >= 0 (have %v)", cfg.MaxBackoff)
	}
	if cfg.MaxBudget < 0 || cfg.DefaultBudget < 0 {
		return fmt.Errorf("budgets must be >= 0 (have max %d, default %d)", cfg.MaxBudget, cfg.DefaultBudget)
	}
	if cfg.MaxBudget > 0 && cfg.DefaultBudget > cfg.MaxBudget {
		return fmt.Errorf("default-budget %d exceeds max-budget %d", cfg.DefaultBudget, cfg.MaxBudget)
	}
	if cfg.DefaultTimeout <= 0 {
		return fmt.Errorf("default-timeout must be positive (have %v)", cfg.DefaultTimeout)
	}
	if cfg.MaxTimeout > 0 && cfg.DefaultTimeout > cfg.MaxTimeout {
		return fmt.Errorf("default-timeout %v exceeds max-timeout %v", cfg.DefaultTimeout, cfg.MaxTimeout)
	}
	if cfg.DrainTimeout < 0 {
		return fmt.Errorf("drain-timeout must be >= 0 (have %v)", cfg.DrainTimeout)
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := DefaultConfig()
	fs := flag.NewFlagSet("ilpd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	fs.StringVar(&cfg.StorePath, "store", cfg.StorePath, "durable JSONL result store (resumed on boot, compacted on drain)")
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "concurrent simulations across all sweeps (default: GOMAXPROCS)")
	fs.IntVar(&cfg.Retries, "retries", cfg.Retries, "retries per transiently failed compile/measurement")
	fs.DurationVar(&cfg.MaxBackoff, "max-backoff", cfg.MaxBackoff, "cap on the exponential retry backoff")
	fs.BoolVar(&cfg.Degrade, "degrade", cfg.Degrade, "render permanently failed cells as NaN rows instead of failing the experiment")
	fs.IntVar(&cfg.MaxSweeps, "max-sweeps", cfg.MaxSweeps, "concurrently running sweeps admitted before 429")
	fs.IntVar(&cfg.MaxDegree, "max-degree", cfg.MaxDegree, "largest per-request machine degree admitted")
	fs.Int64Var(&cfg.MaxBudget, "max-budget", cfg.MaxBudget, "largest per-request instruction budget admitted (0 = uncapped)")
	fs.Int64Var(&cfg.DefaultBudget, "default-budget", cfg.DefaultBudget, "instruction budget for requests that name none (0 = unmetered)")
	fs.DurationVar(&cfg.DefaultTimeout, "default-timeout", cfg.DefaultTimeout, "deadline for requests that name none")
	fs.DurationVar(&cfg.MaxTimeout, "max-timeout", cfg.MaxTimeout, "largest per-request deadline admitted (0 = uncapped)")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", cfg.DrainTimeout, "graceful-shutdown window before in-flight sweeps are cancelled")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ilpd: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 1
	}
	if err := validateConfig(cfg); err != nil {
		fmt.Fprintf(stderr, "ilpd: %v\n", err)
		fs.Usage()
		return 1
	}

	if err := serve(cfg, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "ilpd: %v\n", err)
		return 1
	}
	return 0
}

// serve runs the daemon until SIGINT/SIGTERM, then drains.
func serve(cfg Config, stdout, stderr io.Writer) error {
	var st *store.Store
	if cfg.StorePath != "" {
		var err error
		st, err = store.Open(cfg.StorePath)
		if err != nil {
			return err
		}
		defer st.Close()
		if st.Len() > 0 {
			fmt.Fprintf(stderr, "ilpd: resuming %d committed cells from %s\n", st.Len(), cfg.StorePath)
		}
	}
	srv := NewServer(cfg, st)
	defer srv.Close()

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// First signal starts the drain; restoring default handling means a
	// second signal kills the process immediately.
	context.AfterFunc(ctx, stop)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	srv.SetReady(true)
	fmt.Fprintf(stdout, "ilpd: listening on %s\n", ln.Addr())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(stderr, "ilpd: signal received; draining (timeout %v)\n", cfg.DrainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	// The listener stays up through the drain so clients can read partial
	// results; only now does it stop accepting.
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		if drainErr == nil {
			drainErr = err
		}
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	fmt.Fprintln(stderr, "ilpd: drained cleanly")
	return nil
}
