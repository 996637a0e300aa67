package sim

import (
	"context"
	"testing"

	"ilp/internal/benchmarks"
	"ilp/internal/compiler"
	"ilp/internal/machine"
)

// maxCodeAllocs bounds the allocations of one Predecode or Specialize call:
// the Code, its copy of the machine, its decoded array, and one array per
// kind of trace part. The bound must not grow with the number of traces,
// which runs to hundreds per program.
const maxCodeAllocs = 64

// codeAllocs reports, for every golden benchmark compiled at O4 for CRAY-1,
// the average allocations of one call of f on its Code.
func codeAllocs(t *testing.T, what string, f func(t *testing.T, code *Code) func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops some Puts, so pooled trace builders reallocate")
	}
	cfg := machine.CRAY1()
	for _, b := range benchmarks.All() {
		c, err := compiler.Compile(b.Source, compiler.Options{Machine: cfg, Level: compiler.O4, Unroll: b.DefaultUnroll})
		if err != nil {
			t.Fatalf("%s: compile: %v", b.Name, err)
		}
		code, err := Predecode(c.Prog, cfg)
		if err != nil {
			t.Fatalf("%s: predecode: %v", b.Name, err)
		}
		if code.Superblocks() == 0 {
			t.Fatalf("%s: no superblock traces; the pin would not cover the trace builder", b.Name)
		}
		allocs := testing.AllocsPerRun(5, f(t, code))
		t.Logf("%s: %.0f allocations per %s (%d superblocks)", b.Name, allocs, what, code.Superblocks())
		if allocs > maxCodeAllocs {
			t.Errorf("%s: %.0f allocations per %s, want at most %d", b.Name, allocs, what, maxCodeAllocs)
		}
	}
}

// TestPredecodeAllocs pins Predecode's allocations.
func TestPredecodeAllocs(t *testing.T) {
	codeAllocs(t, "Predecode", func(t *testing.T, code *Code) func() {
		return func() {
			if _, err := Predecode(code.prog, code.cfg); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestSpecializeAllocs pins Specialize's allocations under each program's
// own profile.
func TestSpecializeAllocs(t *testing.T) {
	codeAllocs(t, "Specialize", func(t *testing.T, code *Code) func() {
		prof, err := ProfileRun(context.Background(), code, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return func() { code.Specialize(prof) }
	})
}
