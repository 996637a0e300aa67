// Command ilpstat prints the static timing analysis of a compiled program:
// one row per basic block with its dependence-height, issue-width and
// functional-unit lower bounds, conflict-freedom, and the exact clean-entry
// span when one is proven. With -sim it also simulates the program and
// reports the measured minor cycles against the static [lower, upper]
// bounds, running the verify timing oracle on the pair.
//
// Usage:
//
//	ilpstat [-machine name] [-level 0..4] [-unroll N] [-sim] <benchmark | file.tl>
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
	"ilp/internal/machine"
	"ilp/internal/sim"
	"ilp/internal/statictime"
	"ilp/internal/verify"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ilpstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machineName := fs.String("machine", "base", "machine description (base, multititan, cray1, superscalar:N, superpipelined:M, supersuper:N:M, conflicts:N, underpipelined)")
	level := fs.Int("level", 4, "optimization level 0..4")
	unroll := fs.Int("unroll", 0, "loop unroll factor (0 = benchmark default)")
	simulate := fs.Bool("sim", false, "also simulate and check the static bounds against measured cycles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ilpstat [flags] <benchmark|file.tl>; benchmarks:", strings.Join(benchmarks.Names(), " "))
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ilpstat:", err)
		return 1
	}
	switch {
	case *level < int(compiler.O0) || *level > int(compiler.O4):
		return fail(fmt.Errorf("-level %d is outside 0..4", *level))
	case *unroll < 0:
		return fail(fmt.Errorf("-unroll %d is negative", *unroll))
	}
	m, err := machine.ByName(*machineName)
	if err != nil {
		return fail(err)
	}
	target := fs.Arg(0)

	var src string
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

	c, err := compiler.Compile(src, compiler.Options{
		Machine: m, Level: compiler.Level(*level), Unroll: unrollFactor,
	})
	if err != nil {
		return fail(err)
	}
	a, err := statictime.Analyze(c.Prog, m)
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, a.Format())

	if !*simulate {
		return 0
	}
	res, err := sim.Run(c.Prog, sim.Options{Machine: m, CountInstrs: true})
	if err != nil {
		return fail(err)
	}
	lo := a.LowerBound(res.InstrCounts, res.TakenExits)
	hi := a.UpperBound(res.InstrCounts)
	fmt.Fprintf(stdout, "\nsimulated:    %d minor cycles\n", res.MinorCycles)
	fmt.Fprintf(stdout, "static bounds: [%d, %d]\n", lo, hi)
	fmt.Fprintf(stdout, "slack:         %.3f (simulated / lower bound)\n",
		float64(res.MinorCycles)/float64(lo))
	if ds := verify.CheckTiming(a, res.MinorCycles, res.InstrCounts, res.TakenExits, "ilpstat"); len(ds) > 0 {
		for _, d := range ds {
			fmt.Fprintln(stderr, "ilpstat:", d)
		}
		return 1
	}
	fmt.Fprintln(stdout, "timing oracle: ok")
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
