package main

import (
	"context"
	"fmt"
	"path/filepath"

	"ilp/internal/benchmarks"
	"ilp/internal/experiments"
	"ilp/internal/sim"
)

// tourBench is the benchmark the tour runs; linpack is small and has a
// careful-unrolling variant.
const tourBench = "linpack"

// tour measures, at a small fixed scale, the layers a traced workload does
// not reach itself, so that every traced run prints every per-layer metric.
// Its records belong to run "tour", which the per-layer metrics read only
// for names the workload did not record.
func tour(ctx context.Context, r *run) error {
	tr := r.tr
	tr.setRun("tour")
	small := r.cfg
	small.degree, small.benches = 2, []string{tourBench}
	b, err := benchmarks.ByName(tourBench)
	if err != nil {
		return err
	}
	sections := []struct {
		key string // a span only this section makes
		run func() error
	}{
		{"exp.tab2-1", func() error { return tourExperiments(ctx, tr, small) }},
		{"store.open", func() error { return tourStore(ctx, tr, small) }},
		{"statictime.analyze", func() error { return tourCompiler(ctx, tr, b) }},
		{"sim.batch", func() error { return tourEngine(ctx, tr, small) }},
		{"ilpd.ready", func() error { return tourDaemon(ctx, tr, small) }},
	}
	for _, s := range sections {
		if tr.has(s.key) {
			continue
		}
		if err := s.run(); err != nil {
			return fmt.Errorf("%s: %w", s.key, err)
		}
	}
	return nil
}

func firstErr(errs map[string]error) error {
	for id, err := range errs {
		return fmt.Errorf("%s: %w", id, err)
	}
	return nil
}

// tourExperiments renders every experiment on a fresh runner.
func tourExperiments(ctx context.Context, tr *tracer, cfg config) error {
	var ids []string
	for _, e := range experiments.Experiments() {
		ids = append(ids, e.ID)
	}
	runner := newRunner(cfg, nil)
	var cells cellCounter
	_, errs := sweep(cells.observe(ctx, tr), tr, runner, ids)
	countRunner(tr, runner.Stats())
	cells.record(tr)
	return firstErr(errs)
}

// tourStore fills a store through a runner, resumes from it, and
// re-appends its records.
func tourStore(ctx context.Context, tr *tracer, cfg config) error {
	ids := []string{"tab2-1", "fig4-1"}
	return withStore(cfg.work, func(path string) error {
		st, err := openStore(tr, -1, path)
		if err != nil {
			return err
		}
		_, errs := sweep(ctx, nil, newRunner(cfg, st), ids)
		if err := st.Close(); err != nil {
			return err
		}
		if err := firstErr(errs); err != nil {
			return err
		}
		sp := tr.begin(-1, "runner.resume")
		if st, err = openStore(tr, sp, path); err != nil {
			return err
		}
		defer st.Close()
		_, errs = sweep(ctx, nil, newRunner(cfg, st), ids)
		tr.end(sp)
		if err := firstErr(errs); err != nil {
			return err
		}
		return reappend(tr, st, filepath.Join(filepath.Dir(path), "reappend.jsonl"))
	})
}

// tourCompiler runs b through the front end, every optimization level and
// careful unrolling with the prepare steps, and the verified compile with
// both analyses.
func tourCompiler(ctx context.Context, tr *tracer, b benchmarks.Benchmark) error {
	if err := frontend(tr, -1, b.Source); err != nil {
		return err
	}
	for _, v := range matrixVariants([]benchmarks.Benchmark{b}) {
		if v.role != "base" && v.level != "careful" {
			continue
		}
		if _, _, err := prepare(ctx, tr, -1, b.Source, v.copts, "compiler."+v.level); err != nil {
			return fmt.Errorf("%s: %w", v.key(), err)
		}
	}
	_, _, _, err := analyses(tr, -1, b)
	return err
}

// tourEngine runs one sim-engine round over cfg's benchmarks.
func tourEngine(ctx context.Context, tr *tracer, cfg config) error {
	cells, err := engineCells(ctx, nil, cfg)
	if err != nil {
		return err
	}
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	p := enginePass(ctx, tr, cells, order, sim.NewBatchWorkers(workers), clock)
	for k := range order {
		if err := p.serr[k]; err != nil {
			return err
		}
		if err := p.berr[k]; err != nil {
			return err
		}
	}
	return nil
}

// tourDaemon spawns ilpd and sends two cold requests, then both again warm.
func tourDaemon(ctx context.Context, tr *tracer, cfg config) error {
	bin, err := buildIlpd(ctx, cfg)
	if err != nil {
		return err
	}
	d, err := startIlpd(tr, bin)
	if err != nil {
		return err
	}
	defer d.stop()
	menu := daemonMenu(cfg)[:2]
	s, err := serve(ctx, tr, d, menu, []int{0, 1, 0, 1})
	if err != nil {
		return err
	}
	for n, rp := range s.replies {
		if s.errs[n] != nil || !rp.done {
			return fmt.Errorf("request %d failed: %v", n+1, s.errs[n])
		}
	}
	return nil
}
