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
// Configuration is flags over an optional JSON -config file over built-in
// defaults (an explicitly set flag always wins).
package main

import (
	"bytes"
	"context"
	"encoding/json"
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

// fileConfig is the JSON shape of -config. Pointers distinguish "absent"
// from zero values, so a file can set exactly the keys it means to.
type fileConfig struct {
	Addr           *string `json:"addr,omitempty"`
	Store          *string `json:"store,omitempty"`
	Workers        *int    `json:"workers,omitempty"`
	Retries        *int    `json:"retries,omitempty"`
	MaxBackoff     *string `json:"max_backoff,omitempty"`
	Degrade        *bool   `json:"degrade,omitempty"`
	MaxSweeps      *int    `json:"max_sweeps,omitempty"`
	MaxDegree      *int    `json:"max_degree,omitempty"`
	MaxBudget      *int64  `json:"max_budget,omitempty"`
	DefaultBudget  *int64  `json:"default_budget,omitempty"`
	DefaultTimeout *string `json:"default_timeout,omitempty"`
	MaxTimeout     *string `json:"max_timeout,omitempty"`
	DrainTimeout   *string `json:"drain_timeout,omitempty"`
}

func (fc *fileConfig) apply(cfg *Config) error {
	setDur := func(key string, v *string, into *time.Duration) error {
		if v == nil {
			return nil
		}
		d, err := time.ParseDuration(*v)
		if err != nil {
			return fmt.Errorf("%s: %v", key, err)
		}
		*into = d
		return nil
	}
	if fc.Addr != nil {
		cfg.Addr = *fc.Addr
	}
	if fc.Store != nil {
		cfg.StorePath = *fc.Store
	}
	if fc.Workers != nil {
		cfg.Workers = *fc.Workers
	}
	if fc.Retries != nil {
		cfg.Retries = *fc.Retries
	}
	if fc.Degrade != nil {
		cfg.Degrade = *fc.Degrade
	}
	if fc.MaxSweeps != nil {
		cfg.MaxSweeps = *fc.MaxSweeps
	}
	if fc.MaxDegree != nil {
		cfg.MaxDegree = *fc.MaxDegree
	}
	if fc.MaxBudget != nil {
		cfg.MaxBudget = *fc.MaxBudget
	}
	if fc.DefaultBudget != nil {
		cfg.DefaultBudget = *fc.DefaultBudget
	}
	if err := setDur("max_backoff", fc.MaxBackoff, &cfg.MaxBackoff); err != nil {
		return err
	}
	if err := setDur("default_timeout", fc.DefaultTimeout, &cfg.DefaultTimeout); err != nil {
		return err
	}
	if err := setDur("max_timeout", fc.MaxTimeout, &cfg.MaxTimeout); err != nil {
		return err
	}
	return setDur("drain_timeout", fc.DrainTimeout, &cfg.DrainTimeout)
}

// loadConfig assembles the effective config: defaults, then the -config
// file's keys, then every flag the command line explicitly set.
func loadConfig(fs *flag.FlagSet, flagCfg Config, configPath string) (Config, error) {
	cfg := DefaultConfig()
	if configPath != "" {
		buf, err := os.ReadFile(configPath)
		if err != nil {
			return cfg, err
		}
		var fc fileConfig
		dec := json.NewDecoder(bytes.NewReader(buf))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&fc); err != nil {
			return cfg, fmt.Errorf("%s: %v", configPath, err)
		}
		if err := fc.apply(&cfg); err != nil {
			return cfg, fmt.Errorf("%s: %v", configPath, err)
		}
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "addr":
			cfg.Addr = flagCfg.Addr
		case "store":
			cfg.StorePath = flagCfg.StorePath
		case "workers":
			cfg.Workers = flagCfg.Workers
		case "retries":
			cfg.Retries = flagCfg.Retries
		case "max-backoff":
			cfg.MaxBackoff = flagCfg.MaxBackoff
		case "degrade":
			cfg.Degrade = flagCfg.Degrade
		case "max-sweeps":
			cfg.MaxSweeps = flagCfg.MaxSweeps
		case "max-degree":
			cfg.MaxDegree = flagCfg.MaxDegree
		case "max-budget":
			cfg.MaxBudget = flagCfg.MaxBudget
		case "default-budget":
			cfg.DefaultBudget = flagCfg.DefaultBudget
		case "default-timeout":
			cfg.DefaultTimeout = flagCfg.DefaultTimeout
		case "max-timeout":
			cfg.MaxTimeout = flagCfg.MaxTimeout
		case "drain-timeout":
			cfg.DrainTimeout = flagCfg.DrainTimeout
		}
	})
	return cfg, validateConfig(cfg)
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
	def := DefaultConfig()
	fs := flag.NewFlagSet("ilpd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var flagCfg Config
	fs.StringVar(&flagCfg.Addr, "addr", def.Addr, "listen address")
	fs.StringVar(&flagCfg.StorePath, "store", "", "durable JSONL result store (resumed on boot, compacted on drain)")
	fs.IntVar(&flagCfg.Workers, "workers", def.Workers, "concurrent simulations across all sweeps (default: GOMAXPROCS)")
	fs.IntVar(&flagCfg.Retries, "retries", def.Retries, "retries per transiently failed compile/measurement")
	fs.DurationVar(&flagCfg.MaxBackoff, "max-backoff", def.MaxBackoff, "cap on the exponential retry backoff")
	fs.BoolVar(&flagCfg.Degrade, "degrade", def.Degrade, "render permanently failed cells as NaN rows instead of failing the experiment")
	fs.IntVar(&flagCfg.MaxSweeps, "max-sweeps", def.MaxSweeps, "concurrently running sweeps admitted before 429")
	fs.IntVar(&flagCfg.MaxDegree, "max-degree", def.MaxDegree, "largest per-request machine degree admitted")
	fs.Int64Var(&flagCfg.MaxBudget, "max-budget", def.MaxBudget, "largest per-request instruction budget admitted (0 = uncapped)")
	fs.Int64Var(&flagCfg.DefaultBudget, "default-budget", def.DefaultBudget, "instruction budget for requests that name none (0 = unmetered)")
	fs.DurationVar(&flagCfg.DefaultTimeout, "default-timeout", def.DefaultTimeout, "deadline for requests that name none")
	fs.DurationVar(&flagCfg.MaxTimeout, "max-timeout", def.MaxTimeout, "largest per-request deadline admitted (0 = uncapped)")
	fs.DurationVar(&flagCfg.DrainTimeout, "drain-timeout", def.DrainTimeout, "graceful-shutdown window before in-flight sweeps are cancelled")
	configPath := fs.String("config", "", "JSON config file (flags explicitly set on the command line win)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ilpd: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 1
	}
	cfg, err := loadConfig(fs, flagCfg, *configPath)
	if err != nil {
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
