package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"ilp/internal/experiments"
	"ilp/internal/store"
)

// newRunner is a fresh runner over cfg's sweep shape, persisting to st when
// it is not nil.
func newRunner(cfg config, st *store.Store) *experiments.Runner {
	return experiments.NewRunner(experiments.Config{
		MaxDegree: cfg.degree, Workers: workers, Benchmarks: cfg.benches, Store: st,
	})
}

// render is one experiment's section of the sweep output, as ilpbench
// prints it.
func render(res *experiments.Result) string {
	return fmt.Sprintf("==== %s: %s ====\n\n%s\n", res.ID, res.Title, res.Text)
}

// sections splits one full sweep's output into each experiment's section.
// A header missing from out leaves that experiment without a section.
func sections(out []byte) map[string]string {
	s := "\n" + string(out)
	exps := experiments.Experiments()
	starts := make([]int, len(exps))
	for i, e := range exps {
		if starts[i] = strings.Index(s, "\n==== "+e.ID+": "); starts[i] >= 0 {
			starts[i]++
		}
	}
	m := map[string]string{}
	for i, e := range exps {
		if starts[i] < 0 {
			continue
		}
		end := len(s)
		for _, st := range starts[i+1:] {
			if st > starts[i] {
				end = st
				break
			}
		}
		m[e.ID] = s[starts[i]:end]
	}
	return m
}

// sweepOrder is every experiment id in a seed-drawn order. The output is
// reassembled in the paper's order, so the order changes only which
// experiment pays for the cells they share.
func sweepOrder(seed int64) []string {
	exps := experiments.Experiments()
	ids := make([]string, len(exps))
	for i, p := range rand.New(rand.NewSource(seed)).Perm(len(exps)) {
		ids[i] = exps[p].ID
	}
	return ids
}

// cellCounter counts the cells a sweep resolved live and from the cache.
type cellCounter struct{ live, cached atomic.Int64 }

// observe returns ctx reporting every cell resolved under it to c. Only
// traced runs count cells; otherwise ctx is returned unchanged.
func (c *cellCounter) observe(ctx context.Context, tr *tracer) context.Context {
	if tr == nil {
		return ctx
	}
	return experiments.WithObserver(ctx, func(ev experiments.CellEvent) {
		if ev.Cached {
			c.cached.Add(1)
		} else {
			c.live.Add(1)
		}
	})
}

// record adds the counts to the trace.
func (c *cellCounter) record(tr *tracer) {
	tr.count("cells.live", float64(c.live.Load()))
	tr.count("cells.cached", float64(c.cached.Load()))
}

// sweep runs ids on runner, each under a span named exp.<id>, and returns
// each experiment's section and error.
func sweep(ctx context.Context, tr *tracer, runner *experiments.Runner, ids []string) (map[string]string, map[string]error) {
	out, errs := map[string]string{}, map[string]error{}
	for _, id := range ids {
		sp := tr.begin(-1, "exp."+id)
		res, err := runner.RunCtx(ctx, id)
		tr.end(sp)
		if err != nil {
			errs[id] = err
			continue
		}
		out[id] = render(res)
	}
	return out, errs
}

// checkSweep counts one operation per experiment: it must have rendered
// exactly its section of the golden output.
func (r *run) checkSweep(what string, want, got map[string]string, errs map[string]error, ids []string) {
	for _, id := range ids {
		switch {
		case errs[id] != nil:
			r.op(false, "%s %s: %v", what, id, errs[id])
		case want[id] == "":
			r.op(false, "%s %s: no section in the golden output", what, id)
		default:
			r.op(got[id] == want[id], "%s %s: output differs from the golden output", what, id)
		}
	}
}

// warmUp is the sweep workloads' set-up: a fresh runner rendering its first
// table. It pays the process's lazy one-time costs (engine arenas, heap
// growth) before timing, and would grow if work moved into NewRunner.
func warmUp(ctx context.Context, cfg config, st *store.Store) error {
	_, err := newRunner(cfg, st).RunCtx(ctx, "tab2-1")
	return err
}

// paperSweep is the full paper sweep, as `ilpbench all` runs it: a fresh
// runner per round on the default batched path, experiments in a seed-drawn
// order, output checked against docs/ilpbench-output.txt.
func paperSweep(ctx context.Context, r *run) error {
	want := sections(r.cfg.golden)
	ids := sweepOrder(r.cfg.seed)
	for r.moreSetups() {
		if err := r.setup(func() error { return warmUp(ctx, r.cfg, nil) }); err != nil {
			return err
		}
	}
	return r.loop(func(int) error {
		runner := newRunner(r.cfg, nil)
		var cells cellCounter
		sctx := cells.observe(ctx, r.tr)
		var got map[string]string
		var errs map[string]error
		d := r.timed(func() { got, errs = sweep(sctx, r.tr, runner, ids) })
		r.cur.lat = append(r.cur.lat, millis(d))
		r.instr += runner.Stats().Instructions
		r.simSecs += d.Seconds()
		r.checkSweep("sweep", want, got, errs, ids)
		countRunner(r.tr, runner.Stats())
		cells.record(r.tr)
		return nil
	})
}

// storeSweep is the same sweep with a fresh durable store, which takes the
// runner's per-cell path and fsyncs every committed cell; the store is then
// reopened and the sweep resumed on a new runner with no live simulation.
// A round is the sweep plus the resume; p50_ms and tail_ms are over the
// sweeps.
func storeSweep(ctx context.Context, r *run) error {
	want := sections(r.cfg.golden)
	ids := sweepOrder(r.cfg.seed)
	for r.moreSetups() {
		err := r.setup(func() error {
			return withStore(r.cfg.work, func(path string) error {
				st, err := store.Open(path)
				if err != nil {
					return err
				}
				defer st.Close()
				return warmUp(ctx, r.cfg, st)
			})
		})
		if err != nil {
			return err
		}
	}
	return r.loop(func(int) error {
		return withStore(r.cfg.work, func(path string) error { return r.storeRound(ctx, path, ids, want) })
	})
}

// withStore runs f with the path of a store file in a fresh temporary
// directory, removed afterwards.
func withStore(work string, f func(path string) error) error {
	dir, err := os.MkdirTemp(work, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	return f(filepath.Join(dir, "results.jsonl"))
}

// openStore opens path under a store.open span.
func openStore(tr *tracer, parent int, path string) (st *store.Store, err error) {
	tr.do(parent, "store.open", func() { st, err = store.Open(path) })
	return st, err
}

func (r *run) storeRound(ctx context.Context, path string, ids []string, want map[string]string) error {
	var cells cellCounter
	sctx := cells.observe(ctx, r.tr)
	var (
		got    map[string]string
		errs   map[string]error
		runner *experiments.Runner
		err    error
	)
	d := r.timed(func() {
		var st *store.Store
		if st, err = openStore(r.tr, -1, path); err != nil {
			return
		}
		runner = newRunner(r.cfg, st)
		got, errs = sweep(sctx, r.tr, runner, ids)
		err = st.Close()
	})
	if err != nil {
		return err
	}
	r.cur.lat = append(r.cur.lat, millis(d))
	r.instr += runner.Stats().Instructions
	r.simSecs += d.Seconds()
	r.checkSweep("sweep", want, got, errs, ids)

	var resumed *experiments.Runner
	var st *store.Store
	r.timed(func() {
		sp := r.tr.begin(-1, "runner.resume")
		defer r.tr.end(sp)
		if st, err = openStore(r.tr, sp, path); err != nil {
			return
		}
		resumed = newRunner(r.cfg, st)
		// No exp.<id> spans: they would mix cached renders into the sweep's.
		got, errs = sweep(sctx, nil, resumed, ids)
	})
	if err != nil {
		return err
	}
	defer st.Close()
	r.checkSweep("resumed sweep", want, got, errs, ids)
	live := resumed.Stats().Sims
	r.op(live == 0, "resumed sweep simulated %d cells live; the store should have served them all", live)

	countRunner(r.tr, runner.Stats())
	countRunner(r.tr, resumed.Stats())
	cells.record(r.tr)
	if r.tr != nil {
		return reappend(r.tr, st, filepath.Join(filepath.Dir(path), "reappend.jsonl"))
	}
	return nil
}

// reappend measures the store's append path: every record of src is
// appended, one fsync each, to a new store at path.
func reappend(tr *tracer, src *store.Store, path string) error {
	fi, err := os.Stat(src.Path())
	if err != nil {
		return err
	}
	tr.count("store.records", float64(src.Len()))
	tr.count("store.bytes", float64(fi.Size()))
	dst, err := store.Open(path)
	if err != nil {
		return err
	}
	for _, rec := range src.Records() {
		sp := tr.begin(-1, "store.append")
		err := dst.Append(rec)
		tr.end(sp)
		if err != nil {
			dst.Close()
			return err
		}
	}
	return dst.Close()
}
