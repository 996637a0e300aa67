package ilp_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"ilp/internal/benchmarks"
	"ilp/internal/compiler"
	"ilp/internal/isa"
	"ilp/internal/machine"
	"ilp/internal/statictime"
	"ilp/internal/trace"
)

// compileMatrixDigest is the benchmark's record of the compiler's output:
// a digest of the machine code of every compile-matrix variant, and of the
// verified compile, static timing analysis and trace limits of every
// benchmark.
const compileMatrixDigest = "bench/testdata/compile-matrix.digest"

// TestCompileMatrixDigest rebuilds every entry of the compile-matrix digest
// file and requires a match, so a change to any pass that moves one
// emitted instruction of the eight benchmarks at any level, on any of the
// workload's machines, fails here and not only in the benchmark. The
// digests are computed as the benchmark computes them.
func TestCompileMatrixDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every benchmark at every level on four machines")
	}
	want := readMatrixDigest(t)
	seen := 0
	check := func(key, got string) {
		t.Helper()
		seen++
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("%s: no entry in %s", key, compileMatrixDigest)
		case got != w:
			t.Errorf("%s: digest %s, want %s", key, got, w)
		}
	}

	roles := []struct {
		name string
		m    *machine.Config
	}{{"base", machine.Base()}, {"ss4", machine.IdealSuperscalar(4)},
		{"sp4", machine.Superpipelined(4)}, {"cray1", machine.CRAY1()}}
	wide := machine.Base()
	wide.IntTemps, wide.FPTemps = machine.WideTemps, machine.WideTemps
	wide.IntHomes, wide.FPHomes = 10, 10
	compile := func(key, src string, opts compiler.Options) *compiler.Compiled {
		t.Helper()
		c, err := compiler.Compile(src, opts)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		return c
	}
	for _, b := range benchmarks.All() {
		for lvl := compiler.O0; lvl <= compiler.O4; lvl++ {
			for _, ro := range roles {
				key := fmt.Sprintf("%s O%d %s", b.Name, lvl, ro.name)
				c := compile(key, b.Source, compiler.Options{Machine: ro.m, Level: lvl, Unroll: b.DefaultUnroll})
				check(key, codeDigest(c.Prog))
			}
		}
		if b.Name == "linpack" || b.Name == "livermore" {
			key := b.Name + " careful wide"
			c := compile(key, b.Source, compiler.Options{Machine: wide, Level: compiler.O4, Unroll: 4, Careful: true})
			check(key, codeDigest(c.Prog))
		}

		c := compile(b.Name+" verify", b.Source, compiler.Options{Level: compiler.O4, Unroll: b.DefaultUnroll, Verify: true})
		check(b.Name+" verify", codeDigest(c.Prog))
		a, err := statictime.Analyze(c.Prog, machine.Base())
		if err != nil {
			t.Fatalf("%s statictime: %v", b.Name, err)
		}
		check(b.Name+" statictime", boundsDigest(a))
		lim, err := trace.Analyze(c.Prog, trace.Options{})
		if err != nil {
			t.Fatalf("%s trace: %v", b.Name, err)
		}
		check(b.Name+" trace", sha(fmt.Sprintf("%d %d %d %v", lim.Instructions, lim.BlockedCycles, lim.OracleCycles, lim.Truncated)))
	}
	if seen != len(want) {
		t.Errorf("rebuilt %d entries, %s has %d", seen, compileMatrixDigest, len(want))
	}
}

// readMatrixDigest parses the digest file: "key digest" lines, the key
// being everything before the last space, and # comments.
func readMatrixDigest(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(compileMatrixDigest)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed line %q", compileMatrixDigest, line)
		}
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// codeDigest hashes the machine code of p as the benchmark does: every
// instruction with branch labels left out, the data segment and the entry
// point.
func codeDigest(p *isa.Program) string {
	h := sha256.New()
	for _, in := range p.Instrs {
		sym := in.Sym
		if in.Op.Info().Branch {
			sym = ""
		}
		fmt.Fprintf(h, "%d %d %d %d %d %g %d %s\n", in.Op, in.Dst, in.Src1, in.Src2, in.Imm, in.FImm, in.Target, sym)
	}
	fmt.Fprintf(h, "%v %d %d\n", p.Data, p.Entry, p.StackTop)
	return hex.EncodeToString(h.Sum(nil))
}

// boundsDigest hashes a static timing analysis as the benchmark does: each
// block's extent and bounds and each instruction's potential and gap,
// without block labels.
func boundsDigest(a *statictime.Analysis) string {
	var b strings.Builder
	for _, bl := range a.Blocks {
		fmt.Fprintf(&b, "%d %d %d %d %d %d %v %d\n", bl.Leader, bl.End, bl.DepHeight, bl.WidthBound, bl.UnitBound, bl.Span, bl.ConflictFree, bl.ExactSpan)
	}
	fmt.Fprintf(&b, "%v %v\n", a.Deltas, a.Gaps)
	return sha(b.String())
}
