// Command ilpsim compiles one benchmark (or a TL source file) for a chosen
// machine description, simulates it, and reports cycles, instruction mix,
// stall breakdown, and the program's output. It does everything to a
// compiled program that runs it; tlc does the rest.
//
// Usage:
//
//	ilpsim [-machine name] [-level 0..4] [-unroll N] [-careful] [-temps N]
//	       [-print] [-S] [-pipeline N] [-bounds] <benchmark | file.tl | file.s>
//
// Machines: base, multititan, cray1, superscalar:N, superpipelined:M,
// supersuper:N:M, conflicts:N, underpipelined. A benchmark compiles at its
// default unroll factor unless -unroll is given.
//
// -bounds adds the static timing analysis's [lower, upper] bounds on the
// run's minor cycles, the slack of the measured cycles over the lower
// bound, and the verify timing oracle's verdict on the pair; a V4xx
// diagnostic exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ilp/internal/benchmarks"
	"ilp/internal/cli"
	"ilp/internal/compiler"
	"ilp/internal/isa"
	"ilp/internal/sim"
	"ilp/internal/statictime"
	"ilp/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is ilpsim with its arguments and output streams passed in, returning
// the exit status: 0 on success, 1 on a bad flag value or a failed compile
// or simulation, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ilpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	flags := cli.AddFlags(fs)
	temps := fs.Int("temps", 0, "temporary registers per file (0 = default 16)")
	printOut := fs.Bool("print", false, "show program output values")
	disasm := fs.Bool("S", false, "dump disassembly instead of simulating")
	pipeline := fs.Int("pipeline", 0, "render an issue timeline for the first N dynamic instructions")
	bounds := fs.Bool("bounds", false, "also check the static timing bounds against the measured cycles")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ilpsim [flags] <benchmark|file.tl>; benchmarks:", strings.Join(benchmarks.Names(), " "))
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ilpsim:", err)
		return 1
	}
	switch {
	case *temps < 0:
		return fail(fmt.Errorf("-temps %d is negative", *temps))
	case *pipeline < 0:
		return fail(fmt.Errorf("-pipeline %d is negative", *pipeline))
	}
	target := fs.Arg(0)
	src, copts, err := flags.Resolve(target)
	if err != nil {
		return fail(err)
	}
	m := copts.Machine
	if *temps > 0 {
		m.IntTemps, m.FPTemps = *temps, *temps
	}

	var prog *isa.Program
	if strings.HasSuffix(target, ".s") {
		// Raw assembly: assemble directly, no compiler involved.
		prog, err = isa.Assemble(src)
		if err != nil {
			return fail(err)
		}
	} else {
		c, cerr := compiler.Compile(src, copts)
		if cerr != nil {
			return fail(cerr)
		}
		prog = c.Prog
	}
	if *disasm {
		fmt.Fprint(stdout, prog.Disassemble())
		return 0
	}

	opts := sim.Options{Machine: m, CountInstrs: *bounds}
	type slot struct {
		idx             int
		text            string
		issue, complete int64
	}
	var timeline []slot
	if *pipeline > 0 {
		opts.OnIssue = func(idx int, in *isa.Instr, issue, complete int64) {
			if len(timeline) < *pipeline {
				timeline = append(timeline, slot{idx, in.String(), issue, complete})
			}
		}
	}
	res, err := sim.Run(prog, opts)
	if err != nil {
		return fail(err)
	}
	if *pipeline > 0 {
		fmt.Fprintf(stdout, "issue timeline (first %d dynamic instructions, '#' = executing, minor cycles):\n", len(timeline))
		origin := timeline[0].issue
		for _, s := range timeline {
			width := int(s.complete - s.issue)
			if width < 1 {
				width = 1
			}
			fmt.Fprintf(stdout, "  t=%4d  %s%s  @%d %s\n",
				s.issue-origin,
				strings.Repeat(" ", int(s.issue-origin)),
				strings.Repeat("#", width),
				s.idx, s.text)
		}
		fmt.Fprintln(stdout)
	}

	fmt.Fprintf(stdout, "machine:       %s (issue width %d, degree %d)\n", m.Name, m.IssueWidth, m.Degree)
	fmt.Fprintf(stdout, "options:       level=%s unroll=%d careful=%v\n", copts.Level, copts.Unroll, copts.Careful)
	fmt.Fprintf(stdout, "instructions:  %d (static %d)\n", res.Instructions, len(prog.Instrs))
	fmt.Fprintf(stdout, "minor cycles:  %d\n", res.MinorCycles)
	fmt.Fprintf(stdout, "base cycles:   %.1f\n", res.BaseCycles)
	fmt.Fprintf(stdout, "CPI (base):    %.3f\n", res.BaseCPI())
	fmt.Fprintf(stdout, "stalls:        data %d, write %d, unit %d, width %d, branch %d\n",
		res.Stalls.Data, res.Stalls.Write, res.Stalls.Unit, res.Stalls.Width, res.Stalls.Branch)
	fmt.Fprintf(stdout, "class mix:\n")
	for cl, n := range res.ClassCounts {
		if n > 0 {
			fmt.Fprintf(stdout, "  %-10s %9d (%5.1f%%)\n", isa.Class(cl), n, 100*float64(n)/float64(res.Instructions))
		}
	}
	if *bounds {
		a, err := statictime.Analyze(prog, m)
		if err != nil {
			return fail(err)
		}
		lo := a.LowerBound(res.InstrCounts, res.TakenExits)
		fmt.Fprintf(stdout, "static bounds: [%d, %d]\n", lo, a.UpperBound(res.InstrCounts))
		fmt.Fprintf(stdout, "slack:         %.3f (simulated / lower bound)\n",
			float64(res.MinorCycles)/float64(lo))
		if ds := verify.CheckTiming(a, res.MinorCycles, res.InstrCounts, res.TakenExits, "ilpsim"); len(ds) > 0 {
			for _, d := range ds {
				fmt.Fprintln(stderr, "ilpsim:", d)
			}
			return 1
		}
		fmt.Fprintln(stdout, "timing oracle: ok")
	}
	if *printOut {
		fmt.Fprintf(stdout, "output (%d values):\n", len(res.Output))
		for _, v := range res.Output {
			fmt.Fprintln(stdout, " ", v)
		}
	}
	return 0
}
