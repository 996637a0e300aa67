// Command tlc is the TL compiler driver: it parses, checks, optimizes and
// lowers a TL source file or one of the paper's benchmarks for a machine
// description, and does everything to the compiled program that needs no
// simulation. By default it dumps the final scheduled assembly (-dump ir
// for the IR, -dump none for a one-line summary). Instead of a dump, -verify
// prints every static verifier diagnostic, -run runs the program through
// the reference interpreter, and -analyze prints the static timing
// analysis; -verify takes precedence over -run, and -run over -analyze.
//
// Usage:
//
//	tlc [-machine name] [-level 0..4] [-unroll N] [-careful]
//	    [-dump ir|asm|none] [-run] [-analyze] <file.tl|benchmark>
//	tlc -verify [-all-levels] [flags] <file.tl|benchmark|all>
//
// Machines: base, multititan, cray1, superscalar:N, superpipelined:M,
// supersuper:N:M, conflicts:N, underpipelined. A benchmark compiles at its
// default unroll factor unless -unroll is given.
//
// -verify compiles with the verifier on after every pass and prints every
// diagnostic, warnings included, with its pass provenance and location; the
// target "all" checks the whole suite, and -all-levels checks O0..O4. The
// analysis prints one row per basic block with its dependence-height,
// issue-width and functional-unit lower bounds, conflict-freedom, and the
// exact clean-entry span when one is proven.
//
// Exit status is 2 on a usage error, 1 on a bad flag value, a failed
// compile or an error-severity diagnostic, and 0 otherwise.
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
	"ilp/internal/cli"
	"ilp/internal/compiler"
	"ilp/internal/lang/interp"
	"ilp/internal/lang/parser"
	"ilp/internal/lang/sem"
	"ilp/internal/statictime"
	"ilp/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is tlc with its arguments and output streams passed in, returning the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tlc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	flags := cli.AddFlags(fs)
	verifyFlag := fs.Bool("verify", false, "print every static verifier diagnostic, warnings included, instead of a dump")
	allLevels := fs.Bool("all-levels", false, "with -verify, check every optimization level 0..4")
	analyze := fs.Bool("analyze", false, "print the static timing analysis (per-block cycle bounds) instead of a dump")
	dump := fs.String("dump", "asm", "what to dump: ir, asm, none")
	interpret := fs.Bool("run", false, "run with the reference interpreter and print output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tlc [flags] <file.tl|benchmark>, or tlc -verify [flags] <file.tl|benchmark|all>")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tlc:", err)
		return 1
	}
	target := fs.Arg(0)

	if *verifyFlag {
		targets := []string{target}
		if target == "all" {
			targets = benchmarks.Names()
		}
		failed := false
		for _, t := range targets {
			src, opts, err := flags.Resolve(t)
			if err != nil {
				return fail(err)
			}
			if !*allLevels {
				failed = lint(stdout, stderr, t, src, opts) || failed
				continue
			}
			for lvl := compiler.O0; lvl <= compiler.O4; lvl++ {
				opts.Level = lvl
				failed = lint(stdout, stderr, fmt.Sprintf("%s[O%d]", t, int(lvl)), src, opts) || failed
			}
		}
		if failed {
			return 1
		}
		return 0
	}

	src, opts, err := flags.Resolve(target)
	if err != nil {
		return fail(err)
	}
	if *interpret {
		ast, err := parser.Parse(src)
		if err != nil {
			return fail(err)
		}
		info, err := sem.Analyze(ast)
		if err != nil {
			return fail(err)
		}
		out, err := interp.Run(info)
		if err != nil {
			return fail(err)
		}
		for _, v := range out {
			fmt.Fprintln(stdout, v)
		}
		return 0
	}

	c, err := compiler.Compile(src, opts)
	if err != nil {
		return fail(err)
	}
	if *analyze {
		a, err := statictime.Analyze(c.Prog, opts.Machine)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, a.Format())
		return 0
	}
	switch *dump {
	case "ir":
		fmt.Fprint(stdout, c.IR.String())
	case "asm":
		fmt.Fprint(stdout, c.Prog.Disassemble())
	case "none":
		fmt.Fprintf(stdout, "%d instructions, %d functions, %d loops unrolled\n",
			len(c.Prog.Instrs), len(c.IR.Funcs), c.UnrolledLoops)
	default:
		return fail(fmt.Errorf("unknown dump kind %q", *dump))
	}
	return 0
}

// lint compiles src with in-pipeline verification on and prints every
// diagnostic, each prefixed with where. It reports whether an
// error-severity diagnostic was found or the compile failed.
func lint(stdout, stderr io.Writer, where, src string, opts compiler.Options) bool {
	opts.Verify = true
	c, err := compiler.Compile(src, opts)
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
	diags := verify.Check(c.Prog, verify.Options{Machine: opts.Machine, Mem: c.Mem})
	report(stdout, where, diags)
	return len(verify.Errors(diags)) > 0
}

func report(w io.Writer, where string, diags []verify.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s\n", where, d)
	}
}
