package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ilp/internal/experiments"
	"ilp/internal/ilperr"
	"ilp/internal/store"
)

// TestMain lets this test binary double as a shard worker: the
// coordinator tests set ILP_FABRIC_WORKER=1 in the environment of the
// workers they spawn, and the re-exec'd binary lands in WorkerMain
// instead of the test runner — the same re-exec trick ilpbench plays with
// its "fabric-worker" subcommand.
func TestMain(m *testing.M) {
	if os.Getenv("ILP_FABRIC_WORKER") == "1" {
		os.Exit(WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestPartition: round-robin, no empty shards, order preserved in shard.
func TestPartition(t *testing.T) {
	benches := []string{"a", "b", "c", "d", "e"}
	shards := Partition(benches, 2)
	if len(shards) != 2 {
		t.Fatalf("got %d shards, want 2", len(shards))
	}
	if !reflect.DeepEqual(shards[0].Benchmarks, []string{"a", "c", "e"}) ||
		!reflect.DeepEqual(shards[1].Benchmarks, []string{"b", "d"}) {
		t.Fatalf("round-robin wrong: %+v", shards)
	}
	if shards[0].ID != "shard0" || shards[1].ID != "shard1" {
		t.Fatalf("shard ids wrong: %+v", shards)
	}
	// More shards than benchmarks: one benchmark per shard, none empty.
	if got := Partition([]string{"x", "y"}, 5); len(got) != 2 {
		t.Fatalf("over-sharding made %d shards, want 2", len(got))
	}
	if got := Partition(benches, 0); len(got) != 1 || len(got[0].Benchmarks) != 5 {
		t.Fatalf("n=0 should mean one shard with everything: %+v", got)
	}
}

// testConfig is the shared tiny sweep: one cheap experiment over two
// benchmarks, split two ways.
func testConfig(t *testing.T, dir string) Config {
	t.Helper()
	return Config{
		Shards:    2,
		StorePath: filepath.Join(dir, "merged.jsonl"),
		Sweep: Sweep{
			MaxDegree:   2,
			Benchmarks:  []string{"whet", "linpack"},
			Experiments: []string{"fig4-1"},
			Workers:     1,
		},
		WorkerArgv:        []string{os.Args[0]},
		WorkerEnv:         []string{"ILP_FABRIC_WORKER=1"},
		Lease:             2 * time.Second,
		Heartbeat:         20 * time.Millisecond,
		RestartBackoff:    time.Millisecond,
		RestartBackoffMax: 5 * time.Millisecond,
	}
}

// singleProcess renders the same sweep in-process, storeless and
// fault-free — the byte-identity reference for every fabric run.
func singleProcess(t *testing.T, cfg Config) (string, experiments.SweepReport) {
	t.Helper()
	r := experiments.NewRunner(cfg.RunnerConfig(nil, nil))
	var buf bytes.Buffer
	for _, id := range cfg.ids() {
		res, err := r.RunCtx(context.Background(), id)
		if err != nil {
			t.Fatalf("reference run %s: %v", id, err)
		}
		fmt.Fprintf(&buf, "==== %s: %s ====\n\n%s\n", res.ID, res.Title, res.Text)
	}
	return buf.String(), r.Report()
}

func runFabric(t *testing.T, cfg Config) (Summary, string, error) {
	t.Helper()
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sum, err := coord.Run(context.Background(), &out)
	return sum, out.String(), err
}

// TestFabricHappyPath: a fault-free sharded run renders byte-identical
// output to the single-process sweep, with no restarts and the render
// pass resolving everything from the merged store.
func TestFabricHappyPath(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	want, wantRep := singleProcess(t, cfg)
	sum, got, err := runFabric(t, cfg)
	if err != nil {
		t.Fatalf("fabric run: %v\nshards: %+v", err, sum.Shards)
	}
	if got != want {
		t.Fatalf("fabric output differs from single-process run:\nfabric %d bytes, reference %d bytes",
			len(got), len(want))
	}
	if sum.Restarts != 0 {
		t.Fatalf("fault-free run restarted %d times", sum.Restarts)
	}
	if sum.Merge.Duplicates != 0 || sum.Merge.Conflicts != 0 {
		t.Fatalf("disjoint shards produced duplicates: %+v", sum.Merge)
	}
	if sum.Report.Sims != 0 {
		t.Fatalf("render pass simulated %d cells live; all should resume from the merge", sum.Report.Sims)
	}
	if sum.Report.Cells != wantRep.Cells {
		t.Fatalf("fabric committed %d cells, single process %d", sum.Report.Cells, wantRep.Cells)
	}
}

// TestFabricSurvivesWorkerKills is the kill-anywhere guarantee in
// miniature: at injection rate 1 every worker is SIGKILLed after every
// live commit, so the sweep advances exactly one durable cell per
// process. The coordinator must restart its way through and still
// produce byte-identical output with zero recomputation.
func TestFabricSurvivesWorkerKills(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.Faults = "seed=7,workerkill=1"
	cfg.MaxRestarts = 16
	want, _ := singleProcess(t, cfg)
	sum, got, err := runFabric(t, cfg)
	if err != nil {
		t.Fatalf("fabric under kill injection: %v\nshards: %+v", err, sum.Shards)
	}
	if got != want {
		t.Fatal("output after kill-everywhere injection differs from fault-free run")
	}
	if sum.Restarts == 0 {
		t.Fatal("kill injection at rate 1 caused no restarts — the chaos site is dead")
	}
	// Zero recomputation, by both witnesses: no committed cell appears
	// twice across the shard stores, and the render pass resimulated
	// nothing.
	if sum.Merge.Duplicates != 0 {
		t.Fatalf("restarted workers recomputed committed cells: %+v", sum.Merge)
	}
	if sum.Report.Sims != 0 {
		t.Fatalf("render pass had to resimulate %d cells", sum.Report.Sims)
	}
	// Every surviving attempt resumed its predecessors' cells.
	for _, sh := range sum.Shards {
		if sh.Attempts > 1 && sh.Report.Resumed == 0 {
			t.Fatalf("shard %s restarted %d times but resumed nothing", sh.ID, sh.Attempts-1)
		}
	}
}

// TestFabricTearRepairedOnResume: the workertear site crashes workers
// mid-append; the torn tails must be dropped by CRC repair on the next
// open and at merge, and the final output must still be byte-identical.
func TestFabricTearRepairedOnResume(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.Faults = "seed=3,workertear=1"
	cfg.MaxRestarts = 16
	want, _ := singleProcess(t, cfg)
	sum, got, err := runFabric(t, cfg)
	if err != nil {
		t.Fatalf("fabric under tear injection: %v\nshards: %+v", err, sum.Shards)
	}
	if got != want {
		t.Fatal("output after tear injection differs from fault-free run")
	}
	if sum.Restarts == 0 {
		t.Fatal("tear injection caused no restarts")
	}
	if sum.Merge.Duplicates != 0 || sum.Report.Sims != 0 {
		t.Fatalf("tear recovery recomputed cells: merge %+v, render live %d", sum.Merge, sum.Report.Sims)
	}
}

// TestFabricRevokesHungWorker: a worker that goes silent (workerhang)
// must be recovered by lease expiry — process death never happens on its
// own — and the sweep must still complete correctly.
func TestFabricRevokesHungWorker(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	// At rate 1 every attempt that performs a live commit hangs right
	// after it, in the observer of its first durable cell; each attempt
	// lands at least one more cell, so a later attempt resumes them all
	// from the store and finishes without a hang.
	cfg.Benchmarks = []string{"whet"}
	cfg.Shards = 1
	cfg.Experiments = []string{"fig4-5"} // 2 cells: few, cheap attempts
	cfg.Faults = "seed=1,workerhang=1"
	cfg.MaxRestarts = 8
	cfg.Lease = 300 * time.Millisecond
	cfg.Heartbeat = 20 * time.Millisecond
	want, _ := singleProcess(t, cfg)
	sum, got, err := runFabric(t, cfg)
	if err != nil {
		t.Fatalf("fabric under hang injection: %v\nshards: %+v", err, sum.Shards)
	}
	if got != want {
		t.Fatal("output after hang injection differs from fault-free run")
	}
	revocations := 0
	for _, sh := range sum.Shards {
		revocations += sh.Revocations
	}
	if revocations == 0 {
		t.Fatal("hang injection at rate 1 never tripped the lease watchdog")
	}
	if sum.Report.Sims != 0 || sum.Merge.Duplicates != 0 {
		t.Fatalf("hang recovery recomputed cells: merge %+v, render live %d", sum.Merge, sum.Report.Sims)
	}
}

// TestFabricRetriesExhausted: when the fault schedule outlives the
// restart budget, the shard fails with a transient WorkerError and the
// run reports it rather than spinning forever.
func TestFabricRetriesExhausted(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.Faults = "seed=7,workerkill=1"
	cfg.MaxRestarts = 1 // 4 cells per shard need 4 restarts; 1 cannot finish
	sum, _, err := runFabric(t, cfg)
	if err == nil {
		t.Fatalf("sweep impossibly completed within 1 restart: %+v", sum)
	}
	var werr *WorkerError
	if !errors.As(err, &werr) {
		t.Fatalf("terminal failure is not a WorkerError: %v", err)
	}
	if !ilperr.IsTransient(werr) {
		t.Fatalf("a kill should classify transient even when the budget runs out: %v", werr)
	}
	for _, sh := range sum.Shards {
		if sh.Err != nil && sh.Attempts != cfg.MaxRestarts+1 {
			t.Fatalf("failed shard %s ran %d attempts, want %d", sh.ID, sh.Attempts, cfg.MaxRestarts+1)
		}
	}
}

// TestFabricPermanentFailureDoesNotRestart: a shard that can never
// succeed fails on its first attempt — restarting a deterministic failure
// burns time for nothing. Two inputs reach the worker's permanent verdict:
// an unknown benchmark fails its sweep, and an unparsable faults spec
// fails before the worker opens its store.
func TestFabricPermanentFailureDoesNotRestart(t *testing.T) {
	cases := []struct {
		name  string
		set   func(*Config)
		cause string
	}{
		{"unknown benchmark", func(c *Config) { c.Benchmarks = []string{"no-such-benchmark"} }, "no-such-benchmark"},
		{"bad faults spec", func(c *Config) { c.Faults = "bogus=1" }, "faults spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, t.TempDir())
			cfg.Shards = 1
			tc.set(&cfg)
			sum, _, err := runFabric(t, cfg)
			if err == nil {
				t.Fatal("a sweep that cannot succeed succeeded")
			}
			var werr *WorkerError
			if !errors.As(err, &werr) || !werr.Permanent {
				t.Fatalf("want a permanent WorkerError: %v", err)
			}
			if sum.Shards[0].Attempts != 1 {
				t.Fatalf("permanent failure was retried: %d attempts", sum.Shards[0].Attempts)
			}
			if !strings.Contains(err.Error(), tc.cause) {
				t.Fatalf("terminal error does not name the cause %q: %v", tc.cause, err)
			}
		})
	}
}

// TestFabricShardStoresAreFirstClass: after a run, each shard store and
// the merged store open cleanly and the merged store holds exactly the
// union of the shards.
func TestFabricShardStoresAreFirstClass(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, dir)
	sum, _, err := runFabric(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	union := 0
	coord, _ := New(cfg)
	for i := 0; i < cfg.Shards; i++ {
		recs, _, err := store.Load(coord.ShardStorePath(i))
		if err != nil {
			t.Fatalf("shard store %d unreadable: %v", i, err)
		}
		union += len(recs)
	}
	if union != sum.Merge.Records {
		t.Fatalf("merged %d records from a union of %d", sum.Merge.Records, union)
	}
	st, err := store.Open(cfg.StorePath)
	if err != nil {
		t.Fatalf("merged store does not reopen: %v", err)
	}
	defer st.Close()
	if st.Len() != sum.Merge.Records {
		t.Fatalf("merged store holds %d records, summary says %d", st.Len(), sum.Merge.Records)
	}
}
