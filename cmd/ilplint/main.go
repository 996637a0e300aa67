// Command ilplint runs the internal/verify static checks over compiled TL
// programs and prints every diagnostic — warnings included — with pass
// provenance and location. It is the standalone face of the -verify compile
// mode: the compiler aborts on the first error, ilplint reports everything.
//
// Usage:
//
//	ilplint [-level 0..4] [-all-levels] [-unroll N] [-careful]
//	        [-machine name] <file.tl|benchmark|all>
//
// Machines are named as for ilpsim: base, multititan, cray1, superscalar:N,
// superpipelined:M, supersuper:N:M, conflicts:N, underpipelined. The target
// may be a TL source file, the name of one of the paper's eight benchmarks,
// or "all" for the whole suite. Exit status is 1 when any error-severity
// diagnostic is found or a compile fails (a -level outside 0..4 or a
// negative -unroll included), 2 on usage errors, and 0 otherwise.
//
// Example diagnostic:
//
//	yacc: V302 error: @41 `addi r11, r10, 1`: scheduled before its producer `li r10, 7` [pass sched]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ilp/internal/benchmarks"
	"ilp/internal/compiler"
	"ilp/internal/machine"
	"ilp/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is ilplint with its arguments and output streams passed in, returning
// the exit status: 0 when no error-severity diagnostic is found, 1 when one
// is or a compile fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ilplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	level := fs.Int("level", 4, "optimization level 0..4")
	allLevels := fs.Bool("all-levels", false, "check every optimization level 0..4")
	unroll := fs.Int("unroll", 0, "loop unroll factor")
	careful := fs.Bool("careful", false, "careful unrolling")
	machineName := fs.String("machine", "base", "machine description (base, multititan, cray1, superscalar:N, superpipelined:M, supersuper:N:M, conflicts:N, underpipelined)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ilplint [flags] <file.tl|benchmark|all>")
		return 2
	}

	cfg, err := machine.ByName(*machineName)
	if err != nil {
		fmt.Fprintln(stderr, "ilplint:", err)
		return 2
	}

	type unit struct {
		name string
		src  string
	}
	var units []unit
	target := fs.Arg(0)
	switch {
	case target == "all":
		for _, b := range benchmarks.All() {
			units = append(units, unit{b.Name, b.Source})
		}
	default:
		if b, err := benchmarks.ByName(target); err == nil {
			units = append(units, unit{b.Name, b.Source})
		} else {
			data, ferr := os.ReadFile(target)
			if ferr != nil {
				fmt.Fprintln(stderr, "ilplint:", ferr)
				return 2
			}
			units = append(units, unit{target, string(data)})
		}
	}

	levels := []compiler.Level{compiler.Level(*level)}
	if *allLevels {
		levels = []compiler.Level{compiler.O0, compiler.O1, compiler.O2, compiler.O3, compiler.O4}
	}

	failed := false
	for _, u := range units {
		for _, lvl := range levels {
			where := u.name
			if *allLevels {
				where = fmt.Sprintf("%s[O%d]", u.name, int(lvl))
			}
			if lint(stdout, stderr, where, u.src, cfg, lvl, *unroll, *careful) {
				failed = true
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

// lint compiles one unit with in-pipeline verification on and prints every
// diagnostic. Returns true if any error-severity diagnostic was found.
func lint(stdout, stderr io.Writer, where, src string, cfg *machine.Config, lvl compiler.Level, unroll int, careful bool) bool {
	c, err := compiler.Compile(src, compiler.Options{
		Machine: cfg, Level: lvl, Unroll: unroll, Careful: careful, Verify: true,
	})
	if err != nil {
		// A verification failure carries the full diagnostic list; print it
		// with provenance. Anything else (parse, type errors) prints as-is
		// with its own line:col locations.
		var verr *verify.Error
		if errors.As(err, &verr) {
			report(stdout, where, verr.Diags)
			return true
		}
		fmt.Fprintf(stderr, "%s: %v\n", where, err)
		return true
	}
	// Clean compile: re-run the checker standalone so warnings (which do not
	// abort compilation) are still reported.
	diags := verify.Check(c.Prog, verify.Options{Machine: cfg, Mem: c.Mem})
	report(stdout, where, diags)
	return len(verify.Errors(diags)) > 0
}

func report(w io.Writer, where string, diags []verify.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s\n", where, d)
	}
}
