// path_test.go pins the path cache: a front's first cache-free simulation
// records its control path and every later one walks it to the result a
// direct simulation gives, following the recording while it runs; a
// recording that fails for a real reason sends later simulations back to
// executing, each with its own error; a cancelled recording is evicted and
// led again; and concurrent sweeps share path entries. Run with -race -cpu
// 4.
package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"ilp/internal/benchmarks"
	"ilp/internal/compiler"
	"ilp/internal/machine"
	"ilp/internal/sim"
)

// directRun compiles and simulates a job without the runner.
func directRun(t *testing.T, j job, opts sim.Options) (*sim.Result, error) {
	t.Helper()
	b, err := benchmarks.ByName(j.bench)
	if err != nil {
		t.Fatal(err)
	}
	copts := j.copts
	copts.Machine = j.m
	c, err := compiler.Compile(b.Source, copts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Machine = j.m
	return sim.Run(c.Prog, opts)
}

// cacheFreeCells counts a sweep's distinct cache-free sim keys and their
// distinct front keys.
func cacheFreeCells(jobs []job) (cells, fronts int) {
	seen, fs := map[string]bool{}, map[string]bool{}
	for _, j := range jobs {
		if j.m.ICache != nil || j.m.DCache != nil {
			continue
		}
		skey := compileKey(j.bench, j.copts, j.m) + "|" + j.m.Fingerprint()
		if !seen[skey] {
			seen[skey] = true
			fs[frontKey(j.bench, j.copts, j.m)] = true
		}
	}
	return len(seen), len(fs)
}

// TestPathSweepWalks: on a reduced sweep whose fronts span several
// machines, every cell equals a direct simulation, each front with a
// cache-free cell records one path, and every other cache-free cell walks.
func TestPathSweepWalks(t *testing.T) {
	jobs := frontSweepJobs()
	r := NewRunner(Config{Workers: 2})
	res, err := r.measureMany(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		want, err := directRun(t, j, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], want) {
			t.Errorf("%s %+v on %s: runner's result differs from a direct simulation", j.bench, j.copts, j.m.Name)
		}
	}
	cells, fronts := cacheFreeCells(jobs)
	st := r.Stats()
	if st.Paths != int64(fronts) || st.Walks != int64(cells-fronts) {
		t.Errorf("Paths = %d, Walks = %d; want %d and %d", st.Paths, st.Walks, fronts, cells-fronts)
	}
}

// TestPathJoinerFollowsOpenRecording: a cell that joins its front's path
// entry while the recording has not even started walks the open path,
// following the recording instead of waiting for all of it, and ends with
// a direct simulation's result.
func TestPathJoinerFollowsOpenRecording(t *testing.T) {
	jobs := sweepJobs("grr", 2)
	r := NewRunner(Config{Workers: 2})
	r.simHook = func(_ context.Context, _ string, _ *machine.Config, recording bool, _ *sim.Options) error {
		if !recording {
			return nil
		}
		deadline := time.Now().Add(promptBound)
		for {
			r.mu.Lock()
			n := r.pathJoins
			r.mu.Unlock()
			if n >= 1 {
				return nil
			}
			if time.Now().After(deadline) {
				return errors.New("no cell joined the open path entry")
			}
			time.Sleep(time.Millisecond)
		}
	}
	res, err := r.measureMany(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		want, err := directRun(t, j, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], want) {
			t.Errorf("%s: runner's result differs from a direct simulation", j.m.Name)
		}
	}
	if st := r.Stats(); st.Paths != 1 || st.Walks != 1 {
		t.Errorf("Paths = %d, Walks = %d; want 1 and 1", st.Paths, st.Walks)
	}
}

// TestPathFailedRecordingFallsBack: when a front's recording fails for a
// real reason, each later simulation of the front executes the program and
// returns its own error, not the recording's; and when only the recording
// failed, the later simulations succeed on their own.
func TestPathFailedRecordingFallsBack(t *testing.T) {
	jobs := sweepJobs("whet", 3)
	t.Run("program fails everywhere", func(t *testing.T) {
		const limit = 5000
		r := NewRunner(Config{Workers: 2})
		r.simHook = func(_ context.Context, _ string, _ *machine.Config, _ bool, opts *sim.Options) error {
			opts.MaxInstructions = limit
			return nil
		}
		for _, j := range jobs {
			_, err := r.MeasureCtx(context.Background(), j.bench, j.copts, j.m)
			_, direct := directRun(t, j, sim.Options{MaxInstructions: limit})
			var se *SimError
			if !errors.As(err, &se) || se.Machine != j.m.Name || direct == nil || se.Err.Error() != direct.Error() {
				t.Errorf("%s: got %v, want its own SimError wrapping %v", j.m.Name, err, direct)
			}
		}
		if st := r.Stats(); st.Paths != 1 || st.Walks != 0 {
			t.Errorf("Paths = %d, Walks = %d; want 1 failed recording and no walks", st.Paths, st.Walks)
		}
	})
	t.Run("recording alone fails", func(t *testing.T) {
		r := NewRunner(Config{Workers: 2})
		boom := errors.New("recording failed")
		r.simHook = func(_ context.Context, _ string, _ *machine.Config, recording bool, _ *sim.Options) error {
			if recording {
				return boom
			}
			return nil
		}
		for i, j := range jobs {
			got, err := r.MeasureCtx(context.Background(), j.bench, j.copts, j.m)
			if i == 0 {
				if !errors.Is(err, boom) {
					t.Fatalf("recording cell: got %v, want %v", err, boom)
				}
				continue
			}
			want, derr := directRun(t, j, sim.Options{})
			if err != nil || derr != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: got (%v, %v), want the direct result", j.m.Name, got, err)
			}
		}
		if st := r.Stats(); st.Paths != 1 || st.Walks != 0 {
			t.Errorf("Paths = %d, Walks = %d; want 1 failed recording and no walks", st.Paths, st.Walks)
		}
	})
}

// TestPathCancelledRecordingReled: sweep A leads a front's recording and
// is cancelled while sweep B's simulation of the same front waits on the
// path entry. B does not inherit A's cancellation: it records the path
// itself and returns the direct result.
func TestPathCancelledRecordingReled(t *testing.T) {
	type sweepA struct{}
	jobs := sweepJobs("linpack", 2)
	r := NewRunner(Config{Workers: 2})
	recording := make(chan struct{}, 1)
	r.simHook = func(ctx context.Context, _ string, _ *machine.Config, rec bool, _ *sim.Options) error {
		if !rec || ctx.Value(sweepA{}) == nil {
			return nil
		}
		recording <- struct{}{}
		return blockUntilDone(ctx)
	}
	aCause := errors.New("sweep A cancelled by its client")
	actx, cancelA := context.WithCancelCause(context.WithValue(context.Background(), sweepA{}, true))
	defer cancelA(nil)
	aErr := make(chan error, 1)
	go func() {
		_, err := r.MeasureCtx(actx, jobs[0].bench, jobs[0].copts, jobs[0].m)
		aErr <- err
	}()
	<-recording // A leads the front's path entry

	var got *sim.Result
	var bErr error
	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		got, bErr = r.MeasureCtx(context.Background(), jobs[1].bench, jobs[1].copts, jobs[1].m)
	}()
	joined(r, &r.pathJoins, 1)
	cancelA(aCause)

	if err := <-aErr; !errors.Is(err, aCause) {
		t.Fatalf("sweep A: want its own cause, got %v", err)
	}
	select {
	case <-bDone:
	case <-time.After(promptBound):
		t.Fatal("sweep B never returned")
	}
	want, err := directRun(t, jobs[1], sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bErr != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("sweep B: got (%+v, %v), want the direct result", got, bErr)
	}
	if st := r.Stats(); st.Paths != 2 || st.Walks != 0 {
		t.Errorf("Paths = %d, Walks = %d; want 2 (B recorded again) and 0", st.Paths, st.Walks)
	}
	// The path B recorded serves later cells.
	if _, err := r.MeasureCtx(context.Background(), jobs[0].bench, jobs[0].copts, jobs[0].m); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Paths != 2 || st.Walks != 1 {
		t.Errorf("Paths = %d, Walks = %d; want 2 and 1", st.Paths, st.Walks)
	}
}

// TestPathConcurrentSweeps: three sweeps over the same reduced cells, in
// different orders, run at once on one runner and share its path entries.
// Every result equals a fresh serial runner's, and each front records one
// path.
func TestPathConcurrentSweeps(t *testing.T) {
	jobs := frontSweepJobs()
	want, err := NewRunner(Config{Workers: 1}).measureMany(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Config{Workers: 4})
	// Job order, reversed, and rotated by half.
	n := len(jobs)
	orders := make([][]int, 3)
	for k := range n {
		orders[0] = append(orders[0], k)
		orders[1] = append(orders[1], n-1-k)
		orders[2] = append(orders[2], (k+n/2)%n)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(orders))
	for s, order := range orders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sj := make([]job, len(order))
			for k, i := range order {
				sj[k] = jobs[i]
			}
			got, err := r.measureMany(context.Background(), sj)
			if err != nil {
				errs[s] = err
				return
			}
			for k, i := range order {
				if !reflect.DeepEqual(got[k], want[i]) {
					errs[s] = errors.New(jobs[i].bench + " on " + jobs[i].m.Name + ": result differs from the serial run")
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	cells, fronts := cacheFreeCells(jobs)
	if st := r.Stats(); st.Paths != int64(fronts) || st.Walks != int64(cells-fronts) {
		t.Errorf("Paths = %d, Walks = %d; want %d and %d", st.Paths, st.Walks, fronts, cells-fronts)
	}
}
