// batch_test.go pins the batched measurement path: a batchable sweep must
// render byte-identical output to the per-cell goroutine path (batching is
// pure scheduling, never timing), keep the singleflight cache protocol
// intact, and count its work in the new stats.
package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"ilp/internal/compiler"
	"ilp/internal/machine"
)

// TestBatchedSweepBitIdentical renders every experiment with a batchable
// config and with a no-op measure hook installed (which forces the goroutine
// fan-out) and requires identical text — pinning each experiment's
// job-to-result indexing on both measurement paths — and that the batched
// runner actually batched.
func TestBatchedSweepBitIdentical(t *testing.T) {
	base := Config{MaxDegree: 4, Benchmarks: []string{"whet", "linpack"}}

	rBatch := NewRunner(base)
	rPlain := NewRunner(base)
	rPlain.measureHook = func(context.Context, string, *machine.Config) error {
		return nil // same semantics, disqualifies the batched path
	}
	if !rBatch.batchable() || rPlain.batchable() {
		t.Fatalf("batchable gate wrong: batch=%v plain=%v", rBatch.batchable(), rPlain.batchable())
	}
	for _, e := range Experiments() {
		id := e.ID
		got, err := rBatch.Run(id)
		if err != nil {
			t.Fatalf("%s (batched): %v", id, err)
		}
		want, err := rPlain.Run(id)
		if err != nil {
			t.Fatalf("%s (goroutine): %v", id, err)
		}
		if got.Text != want.Text {
			t.Errorf("%s: batched rendition diverged:\n got:\n%s\nwant:\n%s", id, got.Text, want.Text)
		}
		if !reflect.DeepEqual(got.Series, want.Series) {
			t.Errorf("%s: batched series diverged", id)
		}
	}
	bs, ps := rBatch.Stats(), rPlain.Stats()
	if bs.BatchedCells == 0 {
		t.Errorf("batchable sweep batched no cells: %+v", bs)
	}
	if ps.BatchedCells != 0 {
		t.Errorf("hooked sweep used the batched path: %+v", ps)
	}
	if bs.Superblocks == 0 || ps.Superblocks == 0 {
		t.Errorf("no superblock traces counted: batch=%d plain=%d", bs.Superblocks, ps.Superblocks)
	}
	if bs.CondTraces == 0 || ps.CondTraces == 0 {
		t.Errorf("no profiled cond traces counted: batch=%d plain=%d", bs.CondTraces, ps.CondTraces)
	}
	if bs.ParallelShards == 0 {
		t.Errorf("batched sweep recorded no shards: %+v", bs)
	}
	if ps.ParallelShards != 0 {
		t.Errorf("hooked sweep recorded batch shards: %+v", ps)
	}
	if bs.Sims != ps.Sims || bs.SimHits != ps.SimHits {
		t.Errorf("cache traffic diverged: batched %+v vs goroutine %+v", bs, ps)
	}
	if bs.BatchedCells != bs.Sims {
		t.Errorf("batchable sweep simulated %d cells, only %d of them batched", bs.Sims, bs.BatchedCells)
	}
}

// TestWarmSweepSkipsWorkerSlot: a sweep whose every cell is cached needs no
// worker slot, so it returns its cached results even while cold sweeps hold
// every slot of the pool.
func TestWarmSweepSkipsWorkerSlot(t *testing.T) {
	r := NewRunner(Config{Workers: 2})
	jobs := sweepJobs("whet", 3)
	want, err := r.measureMany(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cap(r.sem); i++ {
		r.sem <- struct{}{} // every slot held, as by long cold sweeps
	}
	defer func() {
		for i := 0; i < cap(r.sem); i++ {
			<-r.sem
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	got, err := r.measureMany(ctx, jobs)
	if err != nil {
		t.Fatalf("warm sweep with every worker slot taken: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d: warm sweep did not return the cached result", i)
		}
	}
}

// TestBatchedMeasureManyDuplicates: duplicate cells inside one batched sweep
// join the first occurrence's singleflight entry instead of re-simulating.
func TestBatchedMeasureManyDuplicates(t *testing.T) {
	r := NewRunner(Config{})
	jobs := append(sweepJobs("whet", 2), sweepJobs("whet", 2)...)
	res, err := r.measureMany(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if res[i] == nil || res[i] != res[i+2] {
			t.Errorf("duplicate job %d did not join its leader's entry", i)
		}
	}
	st := r.Stats()
	if st.Sims != 2 || st.SimHits != 2 || st.BatchedCells != 2 {
		t.Errorf("stats = %+v, want 2 sims, 2 hits, 2 batched cells", st)
	}
}

// TestBatchedMeasureManyCancellation: a cancelled batched sweep returns the
// cancellation, evicts its claimed entries (no cache poisoning), and a later
// live-context sweep redoes and completes the work.
func TestBatchedMeasureManyCancellation(t *testing.T) {
	r := NewRunner(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.measureMany(ctx, sweepJobs("whet", 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	res, err := r.measureMany(context.Background(), sweepJobs("whet", 2))
	if err != nil || res[0] == nil || res[1] == nil {
		t.Fatalf("retry after cancelled batch failed: res=%v err=%v", res, err)
	}
}

// TestBatchedMatchesMeasureCtx: a cell simulated by the batched path is
// DeepEqual to the same cell measured individually by a fresh runner.
func TestBatchedMatchesMeasureCtx(t *testing.T) {
	opts := compiler.Options{Level: compiler.O4}
	rBatch := NewRunner(Config{})
	res, err := rBatch.measureMany(context.Background(), sweepJobs("whet", 3))
	if err != nil {
		t.Fatal(err)
	}
	rSolo := NewRunner(Config{})
	for i := 0; i < 3; i++ {
		want, err := rSolo.MeasureCtx(context.Background(), "whet", opts, machine.IdealSuperscalar(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], want) {
			t.Errorf("degree %d: batched cell diverged from MeasureCtx:\n got %+v\nwant %+v", i+1, res[i], want)
		}
	}
}
