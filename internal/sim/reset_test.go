package sim

import (
	"context"
	"testing"

	"ilp/internal/benchmarks"
	"ilp/internal/compiler"
	"ilp/internal/isa"
	"ilp/internal/machine"
)

// resetSpan is the number of memory words e's next Reset will zero: the
// loaded data segment plus the dirtied store range (see resetMemory).
func (e *Engine) resetSpan() int {
	n := e.dataLen
	if e.dirtyHi >= e.dirtyLo {
		n += e.dirtyHi - e.dirtyLo + 1
	}
	return n
}

// zeroProbe ORs together the n words just above its one-word data segment
// and the n words just below the stack top, and prints both results: zero
// and zero on a clean memory image.
func zeroProbe(n int64) *isa.Program {
	b := isa.NewBuilder()
	b.Data(0)
	scan := func(label string, from isa.Reg, off int64, end isa.Reg) {
		b.Imm(isa.OpAddi, isa.R(10), from, off)
		b.Li(isa.R(12), 0)
		b.Label(label)
		b.Load(isa.OpLw, isa.R(13), isa.R(10), 0)
		b.Op(isa.OpOr, isa.R(12), isa.R(12), isa.R(13))
		b.Imm(isa.OpAddi, isa.R(10), isa.R(10), 1)
		b.Branch(isa.OpBlt, isa.R(10), end, label)
		b.Print(isa.R(12))
	}
	b.Li(isa.R(11), 1+n)
	scan("low", isa.RZero, 1, isa.R(11))
	scan("high", isa.RSP, -n, isa.RSP)
	b.Halt()
	return b.MustFinish()
}

// TestResetClearsOnlyDirtiedMemory: after each paper benchmark, on the fast
// path (with trace replay) and on a hooked run, the engine's next
// Reset zeroes the benchmark's data segment plus its few dirtied stack
// words — not the whole 2^21-word arena, which a store into the data
// segment used to drag into the dirty range. A second program on the same
// engine must still see a memory image as clean as a fresh engine's: zeros
// above its own data segment, across the benchmark's old data segment, and
// deep in the stack.
func TestResetClearsOnlyDirtiedMemory(t *testing.T) {
	cfg := machine.Base()
	suite := benchmarks.All()
	progs := make([]*isa.Program, len(suite))
	maxData := 0
	for i, b := range suite {
		c, err := compiler.Compile(b.Source, compiler.Options{Machine: cfg, Level: compiler.O4, Unroll: b.DefaultUnroll})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		progs[i] = c.Prog
		maxData = max(maxData, len(c.Prog.Data))
	}
	probe := zeroProbe(int64(maxData) + 1024)
	want := mustRun(t, probe, cfg).Output

	paths := []struct {
		name string
		opts Options
	}{
		{"fast", Options{Machine: cfg}},
		{"hooked", Options{Machine: cfg, OnIssue: func(int, *isa.Instr, int64, int64) {}}},
	}
	e := NewEngine()
	ctx := context.Background()
	for i, b := range suite {
		for _, path := range paths {
			if err := e.RunIntoCtx(ctx, progs[i], path.opts, new(Result)); err != nil {
				t.Fatalf("%s/%s: %v", b.Name, path.name, err)
			}
			if got, limit := e.resetSpan(), len(progs[i].Data)+1024; got > limit {
				t.Errorf("%s/%s: next Reset zeroes %d words, want at most %d (data segment %d + 1024)",
					b.Name, path.name, got, limit, len(progs[i].Data))
			}
			got := new(Result)
			if err := e.RunIntoCtx(ctx, probe, Options{Machine: cfg}, got); err != nil {
				t.Fatalf("%s/%s: probe: %v", b.Name, path.name, err)
			}
			if len(got.Output) != len(want) || !got.Output[0].Equal(want[0]) || !got.Output[1].Equal(want[1]) {
				t.Errorf("%s/%s: probe after the benchmark read %v, a fresh engine reads %v", b.Name, path.name, got.Output, want)
			}
			for a, w := range e.mem[len(probe.Data):] {
				if w != 0 {
					t.Fatalf("%s/%s: word %d is %d after Reset, want 0", b.Name, path.name, len(probe.Data)+a, w)
				}
			}
		}
	}
}
