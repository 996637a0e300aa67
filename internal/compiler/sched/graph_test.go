package sched_test

import (
	"testing"

	"ilp/internal/benchmarks"
	"ilp/internal/compiler"
	"ilp/internal/compiler/sched"
	"ilp/internal/ir"
	"ilp/internal/isa"
	"ilp/internal/machine"
)

// lowered compiles benchmark b up to the scheduler at the given level and
// returns its unscheduled code.
func lowered(t *testing.T, b benchmarks.Benchmark, opts compiler.Options) *compiler.Compiled {
	t.Helper()
	opts.Unroll = b.DefaultUnroll
	l, err := compiler.Lower(b.Source, opts)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	c, err := l.Schedule(opts.Machine, true)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	return c
}

// TestGraphMatchesReference checks the dependence graph against the
// reference analysis on every scheduling region of the eight benchmarks at
// O1–O4, in conservative and careful mode, under the latencies of three
// machines and under the verifier's unit weights.
func TestGraphMatchesReference(t *testing.T) {
	lats := []*[isa.NumClasses]int{&machine.Base().Latency, &machine.CRAY1().Latency, &machine.IdealSuperscalar(4).Latency, nil}
	var g sched.Graph
	for _, b := range benchmarks.All() {
		for lvl := compiler.O1; lvl <= compiler.O4; lvl++ {
			for _, careful := range []bool{false, true} {
				c := lowered(t, b, compiler.Options{Level: lvl, Careful: careful})
				regions := sched.Regions(c.Prog.Instrs, c.BlockStarts)
				for _, r := range regions {
					instrs, mem := c.Prog.Instrs[r[0]:r[1]], c.Mem[r[0]:r[1]]
					for li, lat := range lats {
						if err := sched.DiffReference(&g, instrs, mem, careful, lat); err != nil {
							t.Fatalf("%s O%d careful=%v latencies %d, region [%d, %d): %v", b.Name, lvl, careful, li, r[0], r[1], err)
						}
					}
				}
			}
		}
	}
}

// maxScheduleAllocs bounds Schedule's allocations per call: its tables and
// work arrays are built once per call, sized for the longest region, so the
// count must not grow with the number of regions or edges.
const maxScheduleAllocs = 128

// TestScheduleAllocs pins Schedule's allocations on every golden benchmark
// at O4 for CRAY-1, whose units and latencies exercise every table.
func TestScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes what allocates")
	}
	m := machine.CRAY1()
	for _, b := range benchmarks.All() {
		c := lowered(t, b, compiler.Options{Machine: m, Level: compiler.O4})
		prog := *c.Prog
		prog.Instrs = make([]isa.Instr, len(c.Prog.Instrs))
		mem := make([]ir.MemRef, len(c.Mem))
		allocs := testing.AllocsPerRun(5, func() {
			copy(prog.Instrs, c.Prog.Instrs)
			copy(mem, c.Mem)
			sched.Schedule(&prog, mem, c.BlockStarts, m, sched.Options{})
		})
		t.Logf("%s: %.0f allocations per Schedule", b.Name, allocs)
		if allocs > maxScheduleAllocs {
			t.Errorf("%s: %.0f allocations per Schedule, want at most %d", b.Name, allocs, maxScheduleAllocs)
		}
	}
}
