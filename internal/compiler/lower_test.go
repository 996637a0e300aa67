package compiler

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"ilp/internal/benchmarks"
	"ilp/internal/ir"
	"ilp/internal/machine"
)

// splitMachine is a base machine whose register files are divided 40/10
// between temporaries and homes instead of the default split.
func splitMachine() *machine.Config {
	m := machine.Base()
	m.Name = "base-40/10"
	m.IntTemps, m.IntHomes, m.FPTemps, m.FPHomes = 40, 10, 40, 10
	return m
}

// lowerGridMachines are the machines the Lower+Schedule grid schedules for:
// four that share the default register split but differ in latencies,
// units and widths, and one with its own split.
func lowerGridMachines() []*machine.Config {
	return []*machine.Config{
		machine.Base(), machine.IdealSuperscalar(4), machine.Superpipelined(4),
		machine.CRAY1(), splitMachine(),
	}
}

// memSig renders a memory annotation without the symbol pointer, which
// differs between two compiles of the same source.
func memSig(m ir.MemRef) string {
	name := ""
	if m.Sym != nil {
		name = m.Sym.Name
	}
	return fmt.Sprintf("%d/%s/%d", m.Kind, name, m.Slot)
}

// sameCompiled reports the first difference between two compiles of one
// source: instructions, data segment, entry, stack top, memory annotations
// or block leaders.
func sameCompiled(got, want *Compiled) error {
	switch {
	case !slices.Equal(got.Prog.Instrs, want.Prog.Instrs):
		return fmt.Errorf("instructions differ")
	case !slices.Equal(got.Prog.Data, want.Prog.Data):
		return fmt.Errorf("data segments differ")
	case got.Prog.Entry != want.Prog.Entry:
		return fmt.Errorf("entry %d, want %d", got.Prog.Entry, want.Prog.Entry)
	case got.Prog.StackTop != want.Prog.StackTop:
		return fmt.Errorf("stack top %d, want %d", got.Prog.StackTop, want.Prog.StackTop)
	case !slices.Equal(got.BlockStarts, want.BlockStarts):
		return fmt.Errorf("block leaders differ")
	case len(got.Mem) != len(want.Mem):
		return fmt.Errorf("%d memory annotations, want %d", len(got.Mem), len(want.Mem))
	}
	for i := range got.Mem {
		if g, w := memSig(got.Mem[i]), memSig(want.Mem[i]); g != w {
			return fmt.Errorf("memory annotation %d is %s, want %s", i, g, w)
		}
	}
	return nil
}

// TestScheduleMatchesCompile: one Lower per (benchmark, options, register
// split), scheduled for every machine with that split, with and without
// NoSchedule, yields exactly what a full Compile for that machine yields —
// over the eight benchmarks at O0–O4 and careful linpack and livermore.
func TestScheduleMatchesCompile(t *testing.T) {
	type variant struct {
		bench benchmarks.Benchmark
		opts  Options
	}
	var vs []variant
	for _, b := range benchmarks.All() {
		for lvl := O0; lvl <= O4; lvl++ {
			vs = append(vs, variant{b, Options{Level: lvl, Unroll: b.DefaultUnroll}})
		}
	}
	for _, name := range []string{"linpack", "livermore"} {
		b, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, variant{b, Options{Level: O4, Unroll: 4, Careful: true}})
	}

	machines := lowerGridMachines()
	for _, v := range vs {
		lowered := map[string]*Lowered{}
		for _, m := range machines {
			split := fmt.Sprint(m.IntTemps, m.IntHomes, m.FPTemps, m.FPHomes)
			l := lowered[split]
			if l == nil {
				opts := v.opts
				opts.Machine = m
				var err error
				if l, err = Lower(v.bench.Source, opts); err != nil {
					t.Fatalf("%s %+v: Lower: %v", v.bench.Name, v.opts, err)
				}
				lowered[split] = l
			}
			for _, noSched := range []bool{false, true} {
				opts := v.opts
				opts.Machine, opts.NoSchedule = m, noSched
				want, err := Compile(v.bench.Source, opts)
				if err != nil {
					t.Fatalf("%s %+v on %s: Compile: %v", v.bench.Name, v.opts, m.Name, err)
				}
				got, err := l.Schedule(m, noSched)
				if err != nil {
					t.Fatalf("%s %+v on %s: Schedule: %v", v.bench.Name, v.opts, m.Name, err)
				}
				if err := sameCompiled(got, want); err != nil {
					t.Errorf("%s %+v on %s (NoSchedule %v): Lower+Schedule differs from Compile: %v",
						v.bench.Name, v.opts, m.Name, noSched, err)
				}
			}
		}
	}
}

// TestLowerConcurrentSchedule schedules one Lowered for four machines from
// four goroutines at once (run it under -race): every copy must equal a
// full Compile for its machine, and the Lowered must be left unchanged.
func TestLowerConcurrentSchedule(t *testing.T) {
	b, err := benchmarks.ByName("livermore")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Level: O4, Unroll: 4, Careful: true, Machine: machine.Base()}
	l, err := Lower(b.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	instrs, mem := slices.Clone(l.c.Prog.Instrs), slices.Clone(l.c.Mem)

	machines := lowerGridMachines()[:4]
	got := make([]*Compiled, len(machines))
	errs := make([]error, len(machines))
	var wg sync.WaitGroup
	for i, m := range machines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = l.Schedule(m, false)
		}()
	}
	wg.Wait()

	if !slices.Equal(l.c.Prog.Instrs, instrs) || !slices.Equal(l.c.Mem, mem) {
		t.Fatal("scheduling modified the lowered program")
	}
	for i, m := range machines {
		if errs[i] != nil {
			t.Fatalf("%s: %v", m.Name, errs[i])
		}
		o := opts
		o.Machine = m
		want, err := Compile(b.Source, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameCompiled(got[i], want); err != nil {
			t.Errorf("%s: concurrent Schedule differs from Compile: %v", m.Name, err)
		}
	}
}

// TestRejectsBadLevelAndUnroll: a level outside O0..O4 or an unroll factor
// that is negative or above MaxUnroll is an error from Lower and from Compile, which goes through
// it, instead of compiling silently as the nearest level or without
// unrolling.
func TestRejectsBadLevelAndUnroll(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{Level: Level(5)}, "level 5 is outside O0..O4"},
		{Options{Level: Level(9)}, "level 9 is outside O0..O4"},
		{Options{Level: Level(-1)}, "level -1 is outside O0..O4"},
		{Options{Level: O4, Unroll: -1}, "unroll factor -1 is negative"},
		{Options{Level: O0, Unroll: -4}, "unroll factor -4 is negative"},
		{Options{Level: O4, Unroll: MaxUnroll + 1}, "unroll factor 65 is above the limit of 64"},
	} {
		if _, err := Lower(injectSrc, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Lower(%+v): err = %v, want %q", tc.opts, err, tc.want)
		}
		if _, err := Compile(injectSrc, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Compile(%+v): err = %v, want %q", tc.opts, err, tc.want)
		}
	}
	for _, opts := range []Options{{Level: O0}, {Level: O4, Unroll: 1}, {Level: O4, Unroll: MaxUnroll}} {
		if _, err := Compile(injectSrc, opts); err != nil {
			t.Errorf("Compile(%+v): %v", opts, err)
		}
	}
}

// TestLowerRejectsOtherRegSplit: a program allocated for one register split
// cannot be scheduled for a machine that divides its registers differently.
func TestLowerRejectsOtherRegSplit(t *testing.T) {
	l, err := Lower(injectSrc, Options{Level: O4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.Schedule(splitMachine(), false)
	if err == nil || !strings.Contains(err.Error(), "base-40/10") {
		t.Fatalf("Schedule for a different register split: err = %v, want a split mismatch naming the machine", err)
	}
}
