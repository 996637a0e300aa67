package compiler

import (
	"testing"

	"ilp/internal/benchmarks"
	"ilp/internal/machine"
)

// TestLowerAllocs pins Lower's heap allocations per call on base at the
// default unroll, for every golden benchmark at O0 and O4. The CFG
// analyses index their tables by block ID, the register allocator keeps
// its intervals in a dense slice, and one opt.Scratch serves every
// optimization pass call of a compile, so what remains is mostly the
// parser, the AST unroller, irgen and codegen's output. Each pin leaves
// about 10% of headroom; every O4 pin is at most half the count Lower made
// when the analyses were map-based and each pass call allocated its own
// tables (listed beside it, with the O0 count of that time).
func TestLowerAllocs(t *testing.T) {
	pins := map[string]struct{ o0, o4 float64 }{
		"ccom":      {3950, 4700}, // were 5,336 and 12,679
		"grr":       {2050, 2450}, // were 2,793 and 7,264
		"linpack":   {3500, 4050}, // were 5,334 and 12,932
		"livermore": {5300, 6150}, // were 7,908 and 16,445
		"met":       {2300, 2800}, // were 3,203 and 8,178
		"stanford":  {5350, 6550}, // were 7,474 and 18,058
		"whet":      {1850, 2150}, // were 2,600 and 6,614
		"yacc":      {4550, 5450}, // were 6,628 and 18,559
	}
	for _, b := range benchmarks.All() {
		pin, ok := pins[b.Name]
		if !ok {
			t.Fatalf("%s: no pin", b.Name)
		}
		for _, lvl := range []struct {
			level Level
			max   float64
		}{{O0, pin.o0}, {O4, pin.o4}} {
			opts := Options{Machine: machine.Base(), Level: lvl.level, Unroll: b.DefaultUnroll}
			n := testing.AllocsPerRun(3, func() {
				if _, err := Lower(b.Source, opts); err != nil {
					t.Fatal(err)
				}
			})
			if n > lvl.max {
				t.Errorf("%s O%d: Lower makes %.0f allocations per call, pinned at %.0f", b.Name, lvl.level, n, lvl.max)
			}
		}
	}
}
