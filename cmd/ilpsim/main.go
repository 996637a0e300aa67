// Command ilpsim compiles one benchmark (or a TL source file) for a chosen
// machine description, simulates it, and reports cycles, instruction mix,
// stall breakdown, and the program's output.
//
// Usage:
//
//	ilpsim [-machine name] [-level 0..4] [-unroll N] [-careful]
//	       [-width N] [-pipe M] [-temps N] [-print] <benchmark | file.tl>
//
// Machines: base, multititan, cray1, superscalar:N, superpipelined:M,
// supersuper:N:M, conflicts:N, underpipelined.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ilp/internal/benchmarks"
	"ilp/internal/compiler"
	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/sim"
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
	machineName := fs.String("machine", "base", "machine description (base, multititan, cray1, superscalar:N, superpipelined:M, supersuper:N:M, conflicts:N, underpipelined)")
	level := fs.Int("level", 4, "optimization level 0..4 (Figure 4-8's axis)")
	unroll := fs.Int("unroll", 0, "loop unroll factor (0 = benchmark default)")
	careful := fs.Bool("careful", false, "careful unrolling (reassociation + memory disambiguation)")
	temps := fs.Int("temps", 0, "temporary registers per file (0 = default 16)")
	printOut := fs.Bool("print", false, "show program output values")
	disasm := fs.Bool("S", false, "dump disassembly instead of simulating")
	pipeline := fs.Int("pipeline", 0, "render an issue timeline for the first N dynamic instructions")
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
	case *level < int(compiler.O0) || *level > int(compiler.O4):
		return fail(fmt.Errorf("-level %d is outside 0..4", *level))
	case *unroll < 0:
		return fail(fmt.Errorf("-unroll %d is negative", *unroll))
	case *temps < 0:
		return fail(fmt.Errorf("-temps %d is negative", *temps))
	case *pipeline < 0:
		return fail(fmt.Errorf("-pipeline %d is negative", *pipeline))
	}
	m, err := machine.ByName(*machineName)
	if err != nil {
		return fail(err)
	}
	if *temps > 0 {
		m.IntTemps, m.FPTemps = *temps, *temps
	}
	target := fs.Arg(0)

	var src string
	isAsm := strings.HasSuffix(target, ".s")
	unrollFactor := *unroll
	if b, err := benchmarks.ByName(target); err == nil {
		src = b.Source
		if unrollFactor == 0 {
			unrollFactor = b.DefaultUnroll
		}
	} else {
		data, ferr := os.ReadFile(target)
		if ferr != nil {
			return fail(fmt.Errorf("%q is neither a benchmark (%s) nor a readable file: %v",
				target, strings.Join(benchmarks.Names(), " "), ferr))
		}
		src = string(data)
	}

	var prog *isa.Program
	if isAsm {
		// Raw assembly: assemble directly, no compiler involved.
		prog, err = isa.Assemble(src)
		if err != nil {
			return fail(err)
		}
	} else {
		c, cerr := compiler.Compile(src, compiler.Options{
			Machine: m,
			Level:   compiler.Level(*level),
			Unroll:  unrollFactor,
			Careful: *careful,
		})
		if cerr != nil {
			return fail(cerr)
		}
		prog = c.Prog
	}
	if *disasm {
		fmt.Fprint(stdout, prog.Disassemble())
		return 0
	}

	opts := sim.Options{Machine: m}
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
	fmt.Fprintf(stdout, "options:       level=%s unroll=%d careful=%v\n", compiler.Level(*level), unrollFactor, *careful)
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
	if *printOut {
		fmt.Fprintf(stdout, "output (%d values):\n", len(res.Output))
		for _, v := range res.Output {
			fmt.Fprintln(stdout, " ", v)
		}
	}
	return 0
}
