// batch_test.go pins the runner's one measurement path: every sweep —
// stored or not — resolves its cells through measureMany's leaders-first
// worker pool, renders the same bits, keeps the singleflight cache protocol
// intact, never runs more live cells than Config.Workers, and counts its
// work in the stats.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ilp/internal/compiler"
	"ilp/internal/machine"
	"ilp/internal/sim"
	"ilp/internal/store"
)

// TestBatchedSweepBitIdentical renders every experiment on a store-backed
// runner and on a storeless one and requires identical text and series —
// pinning each experiment's job-to-result indexing whether or not the
// sweep persists — and that both ran every live cell on a slot engine, the
// store-backed one committing a record per cell.
func TestBatchedSweepBitIdentical(t *testing.T) {
	base := Config{MaxDegree: 4, Benchmarks: []string{"whet", "linpack"}}
	st, err := store.Open(filepath.Join(t.TempDir(), "sweep.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stored := base
	stored.Store = st

	rStore := NewRunner(stored)
	rPlain := NewRunner(base)
	for _, e := range Experiments() {
		id := e.ID
		got, err := rStore.Run(id)
		if err != nil {
			t.Fatalf("%s (store): %v", id, err)
		}
		want, err := rPlain.Run(id)
		if err != nil {
			t.Fatalf("%s (storeless): %v", id, err)
		}
		if got.Text != want.Text {
			t.Errorf("%s: store-backed rendition diverged:\n got:\n%s\nwant:\n%s", id, got.Text, want.Text)
		}
		if !reflect.DeepEqual(got.Series, want.Series) {
			t.Errorf("%s: store-backed series diverged", id)
		}
	}
	ss, ps := rStore.Stats(), rPlain.Stats()
	for _, c := range []struct {
		name string
		st   RunnerStats
	}{{"store", ss}, {"storeless", ps}} {
		if c.st.BatchedCells != c.st.Sims {
			t.Errorf("%s: simulated %d cells, %d of them on slot engines", c.name, c.st.Sims, c.st.BatchedCells)
		}
		if c.st.ParallelShards == 0 || c.st.Superblocks == 0 || c.st.CondTraces == 0 {
			t.Errorf("%s: no worker goroutines, superblocks or cond traces counted: %+v", c.name, c.st)
		}
	}
	if ss.Sims != ps.Sims || ss.SimHits != ps.SimHits {
		t.Errorf("cache traffic diverged: store %+v vs storeless %+v", ss, ps)
	}
	if n := int64(st.Len()); n != ss.Sims {
		t.Errorf("store holds %d records for %d live cells", n, ss.Sims)
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
	var held []*sim.Engine
	for i := 0; i < cap(r.slots); i++ {
		held = append(held, <-r.slots) // every slot held, as by long cold sweeps
	}
	defer func() {
		for _, e := range held {
			r.slots <- e
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

// TestLiveCellsBoundedByWorkers: three concurrent cold sweeps on a
// two-worker runner never compile more than two cells at once — the worker
// slots bound live cells across every sweep of the runner, not per sweep.
func TestLiveCellsBoundedByWorkers(t *testing.T) {
	r := NewRunner(Config{Workers: 2})
	var live, peak atomic.Int64
	r.compileHook = func(context.Context, string, *machine.Config) error {
		n := live.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(5 * time.Millisecond) // long enough for the sweeps to overlap
		live.Add(-1)
		return nil
	}
	var wg sync.WaitGroup
	benches := []string{"whet", "linpack", "yacc"}
	errs := make([]error, len(benches))
	for k, bench := range benches {
		var jobs []job
		for l := compiler.O0; l <= compiler.O4; l++ {
			jobs = append(jobs, job{bench, compiler.Options{Level: l}, machine.IdealSuperscalar(2)})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[k] = r.measureMany(context.Background(), jobs)
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("%s sweep: %v", benches[k], err)
		}
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("peak of %d concurrent compiles on a two-worker runner", p)
	}
}

// TestJoinerReleadsCancelledCell: sweep A claims two linpack cells and is
// cancelled with its own cause while sweep B, on a live context, has joined
// them. B must not inherit A's cancellation — neither as A's error nor, with
// Degrade, as an uncounted NaN placeholder: it leads the evicted cells again
// and gets real results, through measureMany and through MeasureCtx alike.
func TestJoinerReleadsCancelledCell(t *testing.T) {
	type sweepA struct{}
	for _, degrade := range []bool{false, true} {
		for _, via := range []string{"measureMany", "MeasureCtx"} {
			t.Run(fmt.Sprintf("degrade=%v/%s", degrade, via), func(t *testing.T) {
				r := NewRunner(Config{Workers: 2, Degrade: degrade})
				entered := make(chan struct{}, 2)
				r.measureHook = func(ctx context.Context, bench string, m *machine.Config) error {
					if ctx.Value(sweepA{}) == nil {
						return nil
					}
					entered <- struct{}{}
					return blockUntilDone(ctx)
				}
				jobs := sweepJobs("linpack", 2)
				aCause := errors.New("sweep A cancelled by its client")
				actx, cancelA := context.WithCancelCause(context.WithValue(context.Background(), sweepA{}, true))
				defer cancelA(nil)
				aErr := make(chan error, 1)
				go func() {
					_, err := r.measureMany(actx, jobs)
					aErr <- err
				}()
				<-entered // A has claimed both cells and is simulating one

				res := make([]*sim.Result, len(jobs))
				errs := make([]error, len(jobs))
				bDone := make(chan struct{})
				go func() {
					defer close(bDone)
					if via == "measureMany" {
						got, err := r.measureMany(context.Background(), jobs)
						for i := range errs {
							errs[i] = err
						}
						copy(res, got)
						return
					}
					var wg sync.WaitGroup
					for i, j := range jobs {
						wg.Add(1)
						go func() {
							defer wg.Done()
							res[i], errs[i] = r.MeasureCtx(context.Background(), j.bench, j.copts, j.m)
						}()
					}
					wg.Wait()
				}()
				joined(r, &r.stats.SimHits, int64(len(jobs)))
				cancelA(aCause)

				if err := <-aErr; !errors.Is(err, aCause) {
					t.Fatalf("sweep A: want its own cause, got %v", err)
				}
				select {
				case <-bDone:
				case <-time.After(promptBound):
					t.Fatal("sweep B never returned")
				}
				for i := range jobs {
					if errs[i] != nil {
						t.Fatalf("cell %d: sweep B inherited A's cancellation: %v", i, errs[i])
					}
					if res[i] == nil || res[i].Degraded {
						t.Fatalf("cell %d: sweep B got no real result: %+v", i, res[i])
					}
				}
				if st := r.Stats(); st.Degraded != 0 || st.Sims != 2*int64(len(jobs)) {
					t.Errorf("stats = %+v, want 0 degraded and %d sims (B re-led both cells)", st, 2*len(jobs))
				}
			})
		}
	}
}

// TestBatchedMeasureManyDuplicates: duplicate cells inside one sweep join
// the first occurrence's singleflight entry instead of re-simulating.
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

// TestBatchedMeasureManyCancellation: a cancelled sweep returns the
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
		t.Fatalf("retry after cancelled sweep failed: res=%v err=%v", res, err)
	}
}

// TestBatchedMatchesMeasureCtx: a cell simulated by a multi-cell sweep is
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
			t.Errorf("degree %d: sweep cell diverged from MeasureCtx:\n got %+v\nwant %+v", i+1, res[i], want)
		}
	}
}

// TestLeadersFirstOrder pins the claim order of the cells a sweep leads: every front's first cell in job order, then every other
// cell in job order. A sweep with a single front, or with no repeated
// front, keeps job order.
func TestLeadersFirstOrder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fronts []string
		want   []int
	}{
		{"paired", []string{"a", "a", "b", "b", "c", "c"}, []int{0, 2, 4, 1, 3, 5}},
		{"interleaved", []string{"a", "b", "a", "c", "b", "a"}, []int{0, 1, 3, 2, 4, 5}},
		{"single-front", []string{"a", "a", "a"}, []int{0, 1, 2}},
		{"no-repeats", []string{"a", "b", "c"}, []int{0, 1, 2}},
		{"empty", nil, nil},
	} {
		if got := leadersFirst(tc.fronts); !slices.Equal(got, tc.want) {
			t.Errorf("%s: leadersFirst(%q) = %v, want %v", tc.name, tc.fronts, got, tc.want)
		}
	}
}

// TestLeadersFirstSweep: the claim order is pure scheduling. On a reduced
// fig4-6, whose jobs pair each configuration's base and wide machines on
// one front, a two-worker runner (whose workers claim leaders first and
// so lower fronts side by side) returns exactly a one-worker runner's
// results, lowers the same fronts, and runs every live cell on a slot
// engine.
func TestLeadersFirstSweep(t *testing.T) {
	var res [2]*Result
	var stats [2]RunnerStats
	for i, workers := range []int{1, 2} {
		r := NewRunner(Config{MaxDegree: 2, Workers: workers})
		var err error
		if res[i], err = r.Run("fig4-6"); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		stats[i] = r.Stats()
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Errorf("two-worker result diverged:\n got:\n%s\nwant:\n%s", res[1].Text, res[0].Text)
	}
	if stats[0].Lowers != stats[1].Lowers {
		t.Errorf("lowers: %d with two workers, %d with one", stats[1].Lowers, stats[0].Lowers)
	}
	if stats[1].BatchedCells != stats[1].Sims {
		t.Errorf("two-worker sweep ran %d of %d live cells on slot engines", stats[1].BatchedCells, stats[1].Sims)
	}
}
