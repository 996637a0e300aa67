package experiments

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ilp/internal/machine"
	"ilp/internal/store"
)

// TestResumeReproducesOutput is the library half of the kill-and-resume
// acceptance check: a store-backed sweep cancelled partway through, then
// resumed from the same store by a fresh runner, renders output and a
// resume-invariant report byte-identical to an uninterrupted run.
func TestResumeReproducesOutput(t *testing.T) {
	cfg := Config{MaxDegree: 2, Benchmarks: []string{"whet"}}

	// Reference: one uninterrupted, storeless sweep.
	var want bytes.Buffer
	wantRep, err := NewRunner(cfg).RunAll(context.Background(), &want)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted leg: cancel mid-sweep, after a handful of measurements
	// have committed to the store.
	path := filepath.Join(t.TempDir(), "resume.jsonl")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	icfg := cfg
	icfg.Store = st
	r := NewRunner(icfg)
	ctx, cancel := context.WithCancel(context.Background())
	var sims atomic.Int32
	r.measureHook = func(hctx context.Context, bench string, m *machine.Config) error {
		if sims.Add(1) == 5 {
			cancel()
		}
		return nil
	}
	var partial bytes.Buffer
	if _, err := r.RunAll(ctx, &partial); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: want context.Canceled, got %v", err)
	}
	st.Close()
	recs, _, err := store.Load(path)
	if err != nil {
		t.Fatalf("store after interruption: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("interrupted run committed nothing — resume has nothing to prove")
	}

	// Resume leg: a fresh process (new store handle, new runner) finishes
	// the sweep.
	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rcfg := cfg
	rcfg.Store = st2
	r2 := NewRunner(rcfg)
	var got bytes.Buffer
	gotRep, err := r2.RunAll(context.Background(), &got)
	if err != nil {
		t.Fatal(err)
	}

	if got.String() != want.String() {
		t.Fatalf("resumed output differs from uninterrupted run:\nresumed %d bytes, fresh %d bytes",
			got.Len(), want.Len())
	}
	if gotRep.Cells != wantRep.Cells || gotRep.Degraded != wantRep.Degraded {
		t.Fatalf("resume-invariant report fields differ: resumed %+v, fresh %+v", gotRep, wantRep)
	}
	if gotRep.Resumed == 0 {
		t.Fatal("resumed run loaded nothing from the store")
	}
	if gotRep.Sims+gotRep.Resumed < int64(gotRep.Cells) {
		t.Fatalf("report does not add up: %+v", gotRep)
	}
}
