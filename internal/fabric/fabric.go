// Package fabric is the crash-tolerant sharded sweep fabric: a coordinator
// that partitions a benchmark sweep into shards, runs each shard in a
// supervised worker process, and joins the shards' durable results into
// one canonical store whose rendition is byte-identical to a
// single-process run.
//
// The design splits responsibility along the process boundary:
//
//   - The worker is just the existing experiment pipeline. It opens its
//     own shard store (taking the store's advisory writer lock), sweeps
//     its benchmark subset through experiments.Runner, and commits every
//     cell through the store's append-fsync path. It owns no retry or
//     recovery logic beyond what the runner already has: crash recovery
//     is entirely the coordinator's problem.
//
//   - The coordinator owns supervision. Each shard runs under a heartbeat
//     lease: worker events (hello, cell commits, pings) renew it, and a
//     watchdog revokes the lease and kills the process when it lapses —
//     which catches hangs, not just crashes. A worker that dies, hangs,
//     or exits nonzero is restarted with capped exponential backoff (the
//     ilperr taxonomy decides restartability: crashes and lease
//     revocations are transient, a worker that reports a permanent
//     pipeline failure is not). Restarted workers reopen their shard
//     store and resume: committed cells preload the sim cache, so no
//     committed cell is ever recomputed.
//
// The two halves speak newline-delimited JSON: the coordinator writes one
// ShardSpec line to the worker's stdin and then holds the pipe open — a
// worker that sees stdin close knows its coordinator died and cancels —
// and the worker emits one Event per line on stdout.
//
// Recovery correctness rests on three properties, each owned by an
// existing layer rather than re-proved here:
//
//   - Commit durability: a cell is observable (and can trigger an
//     injected crash) only after its store append returned from fsync,
//     so SIGKILL at any observable point loses no acknowledged cell.
//   - Torn tails: a SIGKILL mid-append leaves a torn final line, which
//     store.Load drops by CRC — the cell was never acknowledged.
//   - Merge idempotence: store.Merge is a pure function of the union of
//     shard records (sorted, deduplicated by fingerprint), so re-merging
//     after any crash, in any shard order, yields identical bytes.
//
// Together these give the kill-anywhere guarantee the chaos suite
// exercises: SIGKILL workers at injector-chosen commit points, and the
// merged, rendered output is byte-identical to a fault-free run.
package fabric

import (
	"fmt"
	"time"

	"ilp/internal/experiments"
	"ilp/internal/faultinject"
	"ilp/internal/store"
)

// Sweep is what a fabric run forwards to every process that runs its
// experiments: each shard worker and the coordinator's render pass.
// Config and ShardSpec both embed it, and embedding flattens in JSON, so
// these fields travel as top-level keys of the spec line.
type Sweep struct {
	// MaxDegree, Benchmarks, Workers, Retries, the backoffs and Degrade
	// are the experiments.Config fields of the same names; Workers bounds
	// live cells inside one process. A Config's Benchmarks is the whole
	// suite (nil = all eight), a ShardSpec's its shard's subset.
	MaxDegree  int      `json:"max_degree,omitempty"`
	Benchmarks []string `json:"benchmarks"`
	// Experiments lists the experiment ids to sweep; empty means all, in
	// the paper's order.
	Experiments []string      `json:"experiments,omitempty"`
	Workers     int           `json:"workers,omitempty"`
	Retries     int           `json:"retries,omitempty"`
	BaseBackoff time.Duration `json:"base_backoff,omitempty"`
	MaxBackoff  time.Duration `json:"max_backoff,omitempty"`
	Degrade     bool          `json:"degrade,omitempty"`
	// Faults is the fault-injector spec (faultinject.Parse grammar),
	// covering both in-pipeline sites and the worker kill/hang/tear sites
	// each worker consults at its live commits.
	Faults string `json:"faults,omitempty"`
}

// RunnerConfig is the experiments.Config that runs this sweep over st,
// with inj as its parsed Faults (nil injects nothing).
func (s Sweep) RunnerConfig(st *store.Store, inj *faultinject.Injector) experiments.Config {
	return experiments.Config{
		MaxDegree:   s.MaxDegree,
		Workers:     s.Workers,
		Benchmarks:  s.Benchmarks,
		Retries:     s.Retries,
		BaseBackoff: s.BaseBackoff,
		MaxBackoff:  s.MaxBackoff,
		Degrade:     s.Degrade,
		Store:       st,
		Faults:      inj,
	}
}

func (s Sweep) ids() []string {
	if len(s.Experiments) == 0 {
		return experiments.IDs()
	}
	return s.Experiments
}

// Shard is one unit of supervised work: a named subset of the benchmark
// suite. Every cache key (compile, sim, store) begins with the benchmark
// name, so two shards never contend for a cell. They are not always
// disjoint, though: fig4-6 measures linpack and livermore, and abl-temps
// and ext-icache measure linpack, whatever the benchmark subset, so every
// shard that runs those experiments commits their cells itself and the
// merge folds the copies (see Summary.Merge).
type Shard struct {
	// ID names the shard ("shard0", "shard1", ...) — the key of its
	// lease and the stem of its store file.
	ID string
	// Benchmarks is this shard's benchmark subset, in suite order.
	Benchmarks []string
}

// Partition splits the benchmark list round-robin into at most n shards.
// Round-robin (rather than contiguous ranges) spreads the expensive
// benchmarks across shards, since cost correlates with suite position.
// Fewer benchmarks than shards yields fewer shards, never empty ones.
func Partition(benchmarks []string, n int) []Shard {
	if n < 1 {
		n = 1
	}
	if n > len(benchmarks) {
		n = len(benchmarks)
	}
	shards := make([]Shard, n)
	for i := range shards {
		shards[i].ID = fmt.Sprintf("shard%d", i)
	}
	for i, b := range benchmarks {
		s := &shards[i%n]
		s.Benchmarks = append(s.Benchmarks, b)
	}
	return shards
}
