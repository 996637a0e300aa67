package main

import (
	"bytes"
	"strings"
	"testing"
)

// row is one invocation of run: its arguments, the exit code it must
// return, and a substring of its stderr for a failing row or of its
// stdout for a passing one.
type row struct {
	args []string
	code int
	want string
}

// runRows runs each row as a subtest named by its arguments, with mode
// (a -verify or -analyze flag, or nothing) put before them. A failing
// row's error is one line when it exits 1; a passing row writes nothing
// to stderr.
func runRows(t *testing.T, mode []string, rows []row) {
	t.Helper()
	for _, tc := range rows {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(append(append([]string{}, mode...), tc.args...), &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout.String(), stderr.String())
			}
			out := stdout.String()
			switch {
			case tc.code == 0 && stderr.Len() != 0:
				t.Errorf("stderr not empty: %s", stderr.String())
			case tc.code != 0:
				out = stderr.String()
				if tc.code == 1 && strings.Count(out, "\n") != 1 {
					t.Errorf("want a one-line error, got %q", out)
				}
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestRun: a benchmark compiles at its default unroll factor (linpack's
// 4) unless -unroll is given, and an unknown dump kind or a failed
// compile, such as one unrolled past compiler.MaxUnroll, is a one-line
// error and exit 1.
func TestRun(t *testing.T) {
	runRows(t, nil, []row{
		{[]string{"-dump", "none", "linpack"}, 0, "8 loops unrolled"},
		{[]string{"-dump", "none", "-unroll", "1", "linpack"}, 0, "0 loops unrolled"},
		{[]string{"-dump", "bogus", "whet"}, 1, `unknown dump kind "bogus"`},
		{[]string{"nosuch.tl"}, 1, "neither a benchmark"},
		{[]string{"-dump", "none", "-unroll", "65", "linpack"}, 1, "unroll factor 65 is above the limit of 64"},
	})
}

// TestVerifyArgs: -verify takes every machine.ByName name, an unknown
// machine or an out-of-range flag value is a one-line error and exit 1,
// and a wrong argument count is a usage error.
func TestVerifyArgs(t *testing.T) {
	runRows(t, []string{"-verify"}, []row{
		{[]string{"-machine", "superscalar:4", "whet"}, 0, ""},
		{[]string{"-machine", "conflicts:2", "-level", "2", "whet"}, 0, ""},
		{[]string{"-machine", "nosuch", "whet"}, 1, `unknown machine "nosuch"`},
		{[]string{"-machine", "ss:0", "whet"}, 1, `degree "0"`},
		{[]string{"-level", "9", "whet"}, 1, "-level 9 is outside 0..4"},
		{[]string{"-unroll", "-2", "whet"}, 1, "-unroll -2 is negative"},
		{[]string{"whet", "extra"}, 2, "usage:"},
	})
}

// TestAnalyzeArgs: -analyze rejects a malformed or unknown machine and an
// out-of-range flag value with a one-line error and exit 1, wants one
// program, and analyzes an O0 program without unrolling.
func TestAnalyzeArgs(t *testing.T) {
	runRows(t, []string{"-analyze"}, []row{
		{[]string{"-machine", "superscalar:0", "whet"}, 1, `degree "0"`},
		{[]string{"-machine", "conflicts:0", "whet"}, 1, `degree "0"`},
		{[]string{"-machine", "superscalar:x", "whet"}, 1, `degree "x"`},
		{[]string{"-machine", "ss:4:junk", "whet"}, 1, "at most 1 degree"},
		{[]string{"-machine", "warp-drive", "linpack"}, 1, "unknown machine"},
		{[]string{"-level", "9", "whet"}, 1, "-level 9"},
		{[]string{"-level", "-1", "whet"}, 1, "-level -1"},
		{[]string{"-unroll", "-2", "whet"}, 1, "-unroll -2"},
		{[]string{}, 2, "usage:"},
		{[]string{"-machine", "conflicts:2", "-level", "0", "-unroll", "0", "whet"}, 0, "conflict-free"},
	})
}

// TestAnalyzeTable: -analyze prints the static timing table's columns for
// the chosen machine.
func TestAnalyzeTable(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-analyze", "-machine", "superscalar:4", "linpack"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"block", "dep", "width", "unit", "span", "conflict-free"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestDumpAsmDeterministic: from O3 up, loop-invariant code motion adds a
// preheader block per loop, so the loops must come in a fixed order for
// the blocks, and with them the assembly's labels, to be numbered the same
// way on every compile.
func TestDumpAsmDeterministic(t *testing.T) {
	for _, level := range []string{"3", "4"} {
		var first string
		for i := 0; i < 5; i++ {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-level", level, "-dump", "asm", "yacc"}, &stdout, &stderr); code != 0 {
				t.Fatalf("O%s: exit %d: %s", level, code, stderr.String())
			}
			if i == 0 {
				first = stdout.String()
			} else if stdout.String() != first {
				t.Fatalf("O%s: compile %d printed different assembly from the first", level, i+1)
			}
		}
	}
}
