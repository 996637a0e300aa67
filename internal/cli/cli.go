// Package cli is the front end the single-program commands tlc and ilpsim
// share: the flags that choose how a program is compiled (-machine, -level,
// -unroll, -careful), their validation, and the resolution of a target that
// names one of the paper's benchmarks or a source file. A named benchmark
// compiles at its default unroll factor unless -unroll overrides it, as the
// experiment sweeps compile it.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ilp/internal/benchmarks"
	"ilp/internal/compiler"
	"ilp/internal/machine"
)

// Flags holds the shared compile flags after parsing.
type Flags struct {
	machine       string
	level, unroll int
	careful       bool
}

// AddFlags registers the shared compile flags on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.machine, "machine", "base", "machine description (base, multititan, cray1, superscalar:N, superpipelined:M, supersuper:N:M, conflicts:N, underpipelined)")
	fs.IntVar(&f.level, "level", 4, "optimization level 0..4 (Figure 4-8's axis)")
	fs.IntVar(&f.unroll, "unroll", 0, "loop unroll factor (0 = benchmark default)")
	fs.BoolVar(&f.careful, "careful", false, "careful unrolling (reassociation + memory disambiguation)")
	return f
}

// Resolve validates the flags and reads target, a benchmark name or a file
// path, returning its source text and the options to compile it with. The
// options carry a machine of their own, which the caller may modify. A bad
// flag value or an unreadable target is a one-line error.
func (f *Flags) Resolve(target string) (src string, opts compiler.Options, err error) {
	switch {
	case f.level < int(compiler.O0) || f.level > int(compiler.O4):
		return "", opts, fmt.Errorf("-level %d is outside 0..4", f.level)
	case f.unroll < 0:
		return "", opts, fmt.Errorf("-unroll %d is negative", f.unroll)
	}
	m, err := machine.ByName(f.machine)
	if err != nil {
		return "", opts, err
	}
	opts = compiler.Options{Machine: m, Level: compiler.Level(f.level), Unroll: f.unroll, Careful: f.careful}
	if b, err := benchmarks.ByName(target); err == nil {
		if opts.Unroll == 0 {
			opts.Unroll = b.DefaultUnroll
		}
		return b.Source, opts, nil
	}
	data, err := os.ReadFile(target)
	if err != nil {
		return "", opts, fmt.Errorf("%q is neither a benchmark (%s) nor a readable file: %v",
			target, strings.Join(benchmarks.Names(), " "), err)
	}
	return string(data), opts, nil
}
