package ilp_test

import (
	"strings"
	"testing"

	"ilp"
)

const tiny = `
var total: int;
func main() {
	var i: int;
	for i = 1 to 100 { total = total + i; }
	print(total);
}
`

func TestCompileAndRun(t *testing.T) {
	p, err := ilp.Compile(tiny, ilp.BaseMachine(), ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Output) != 1 || r.Output[0].String() != "5050" {
		t.Errorf("output = %v, want [5050]", r.Output)
	}
	if p.StaticInstructions() == 0 {
		t.Error("no code generated")
	}
	if !strings.Contains(p.Disassemble(), "main") {
		t.Error("disassembly missing main")
	}
}

func TestInterpretMatchesSimulation(t *testing.T) {
	want, err := ilp.Interpret(tiny)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ilp.Compile(tiny, ilp.MultiTitan(), ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(r.Output) || !want[0].Equal(r.Output[0]) {
		t.Errorf("interp %v vs sim %v", want, r.Output)
	}
}

func TestPresetsDistinct(t *testing.T) {
	ms := []*ilp.Machine{
		ilp.BaseMachine(), ilp.Superscalar(4), ilp.Superpipelined(4),
		ilp.SuperpipelinedSuperscalar(2, 2), ilp.MultiTitan(), ilp.CRAY1(),
		ilp.Underpipelined(),
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if m == nil || m.Name == "" {
			t.Fatal("preset missing name")
		}
		if seen[m.Name] {
			t.Errorf("duplicate preset name %s", m.Name)
		}
		seen[m.Name] = true
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestRunBenchmarkAndParallelism(t *testing.T) {
	base, err := ilp.RunBenchmark("whet", ilp.BaseMachine(), ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := ilp.RunBenchmark("whet", ilp.Superscalar(4), ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp := wide.SpeedupOver(base)
	if sp < 1.0 || sp > 4.0 {
		t.Errorf("speedup %v out of range", sp)
	}
	par, err := ilp.Parallelism("whet", 4, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if par < sp-0.01 || par > sp+0.01 {
		t.Errorf("Parallelism (%v) should equal the measured speedup (%v)", par, sp)
	}
	if _, err := ilp.Parallelism("whet", 0, ilp.Options{}); err == nil {
		t.Error("degree 0 accepted")
	}
	if _, err := ilp.RunBenchmark("nope", ilp.BaseMachine(), ilp.Options{}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestBenchmarksListed(t *testing.T) {
	names := ilp.Benchmarks()
	if len(names) != 8 {
		t.Fatalf("suite size %d", len(names))
	}
	src, err := ilp.BenchmarkSource("yacc")
	if err != nil || !strings.Contains(src, "func main") {
		t.Errorf("yacc source missing: %v", err)
	}
}

// TestCompileRejectsBadOptions: a level outside O0..O4 and a negative
// unroll factor are compile errors, not silent O4, O0 or no unrolling.
func TestCompileRejectsBadOptions(t *testing.T) {
	for _, opts := range []ilp.Options{
		ilp.WithLevel(7),
		ilp.WithLevel(-1),
		{Level: 7},
		{Unroll: -2},
	} {
		if _, err := ilp.Compile(tiny, ilp.BaseMachine(), opts); err == nil {
			t.Errorf("Compile with %+v succeeded", opts)
		}
	}
}

func TestOptionLevels(t *testing.T) {
	// WithLevel(O0) must actually compile at O0 (more instructions than
	// the default O4).
	p0, err := ilp.Compile(tiny, ilp.BaseMachine(), ilp.WithLevel(ilp.O0))
	if err != nil {
		t.Fatal(err)
	}
	p4, err := ilp.Compile(tiny, ilp.BaseMachine(), ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r0, err := p0.Run()
	if err != nil {
		t.Fatal(err)
	}
	r4, err := p4.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r4.Instructions >= r0.Instructions {
		t.Errorf("O4 (%d instrs) should beat O0 (%d)", r4.Instructions, r0.Instructions)
	}
	if !r0.Output[0].Equal(r4.Output[0]) {
		t.Error("levels disagree on output")
	}
}

// maxRunAllocs bounds the allocations of a repeated Program.Run: its result
// and output take two, and an engine the pool dropped (the race detector
// drops some on purpose) about a dozen more.
const maxRunAllocs = 32

// TestRepeatedRunAllocatesLittle: a Program is predecoded once, at Compile,
// so a repeated Run pays only for the simulation and allocates a small
// constant, however large the program.
func TestRepeatedRunAllocatesLittle(t *testing.T) {
	for _, name := range []string{"whet", "linpack", "yacc"} {
		src, err := ilp.BenchmarkSource(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ilp.Compile(src, ilp.Superscalar(4), ilp.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var runErr error
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := p.Run(); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatalf("%s: %v", name, runErr)
		}
		t.Logf("%s: %.0f allocations per Run", name, allocs)
		if allocs > maxRunAllocs {
			t.Errorf("%s: %.0f allocations per Run, want at most %d", name, allocs, maxRunAllocs)
		}
	}
}

// TestProgramKeepsItsMachine: a Program simulates the machine it was
// compiled for, so a later change to the caller's Machine reaches neither
// its schedule nor its timing.
func TestProgramKeepsItsMachine(t *testing.T) {
	m := ilp.Superscalar(2)
	p, err := ilp.Compile(tiny, m, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	m.Latency[ilp.ClassAddSub] = 7
	m.IssueWidth = 1
	got, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.MinorCycles != want.MinorCycles || got.Stalls != want.Stalls {
		t.Errorf("after changing the caller's machine: %d minor cycles, stalls %+v; want %d, %+v",
			got.MinorCycles, got.Stalls, want.MinorCycles, want.Stalls)
	}
}

func TestHarmonicMeanExported(t *testing.T) {
	if hm := ilp.HarmonicMean([]float64{2, 2}); hm != 2 {
		t.Errorf("HarmonicMean = %v", hm)
	}
}

func TestCustomMachineAdjustment(t *testing.T) {
	m := ilp.Superscalar(2)
	m.Latency[ilp.ClassLoad] = 5
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	slow, err := ilp.RunBenchmark("yacc", m, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := ilp.RunBenchmark("yacc", ilp.Superscalar(2), ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if slow.BaseCycles <= fast.BaseCycles {
		t.Error("raising load latency should cost cycles")
	}
	deg := ilp.AverageDegreeOfSuperpipelining(m, slow.ClassCounts)
	if deg <= 1.0 {
		t.Errorf("average degree of superpipelining %v should exceed 1 with 5-cycle loads", deg)
	}
}
