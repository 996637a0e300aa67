package main

import (
	"bytes"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// cannedLines are bench result lines for four pairs of one workload, base
// then change, shaped as bench prints them.
var cannedLines = [][2]string{
	{`{"correct":true,"attempted":4,"failed":0,"metrics":{"round_s":{"value":4.0,"unit":"s"},"minstr_s":{"value":100,"unit":"Minstr/s"}}}`,
		`{"correct":true,"attempted":4,"failed":0,"metrics":{"round_s":{"value":3.0,"unit":"s"},"minstr_s":{"value":130,"unit":"Minstr/s"}}}`},
	{`{"correct":true,"attempted":4,"failed":0,"metrics":{"round_s":{"value":5.0,"unit":"s"},"minstr_s":{"value":80,"unit":"Minstr/s"}}}`,
		`{"correct":true,"attempted":4,"failed":0,"metrics":{"round_s":{"value":4.5,"unit":"s"},"minstr_s":{"value":90,"unit":"Minstr/s"}}}`},
	{`{"correct":true,"attempted":4,"failed":0,"metrics":{"round_s":{"value":4.4,"unit":"s"},"minstr_s":{"value":91,"unit":"Minstr/s"}}}`,
		`{"correct":true,"attempted":4,"failed":0,"metrics":{"round_s":{"value":4.4,"unit":"s"},"minstr_s":{"value":91,"unit":"Minstr/s"}}}`},
	{`{"correct":true,"attempted":4,"failed":0,"metrics":{"round_s":{"value":4.2,"unit":"s"},"minstr_s":{"value":95,"unit":"Minstr/s"}}}`,
		`{"correct":true,"attempted":4,"failed":0,"metrics":{"round_s":{"value":4.6,"unit":"s"},"minstr_s":{"value":87,"unit":"Minstr/s"}}}`},
}

func cannedPairs(t *testing.T, metric string) []pair {
	t.Helper()
	var ps []pair
	for _, l := range cannedLines {
		b, err := parseResult(l[0])
		if err != nil {
			t.Fatal(err)
		}
		c, err := parseResult(l[1])
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, pair{b.Metrics[metric].Value, c.Metrics[metric].Value})
	}
	return ps
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestQuartilesMatchPython pins the quantile method to Python's
// statistics.quantiles(xs, n=4) (exclusive), as bench --runs uses it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4.2, 4.0, 5.0, 4.4}, 4.05, 4.85},
		{[]float64{3, 1}, 0.5, 3.5}, // two points extrapolate, as Python does
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4.2, 4.0, 5.0, 4.4}); !near(m, 4.3) {
		t.Errorf("median = %g, want 4.3", m)
	}
}

// TestSummarize checks the comparison arithmetic on the canned lines: the
// medians and quartiles of both sides, the per-pair change, the pairs won
// in each metric's direction (a tie wins for neither side), and the test
// against the base side's spread.
func TestSummarize(t *testing.T) {
	s := summarize(cannedPairs(t, "round_s"), true)
	// base 4.0 5.0 4.4 4.2 → median 4.3 [4.05, 4.85]; change 3.0 4.5 4.4 4.6
	// → median 4.45 [3.35, 4.575]; per-pair −25%, −10%, 0%, +9.52%.
	if !near(s.base[0], 4.3) || !near(s.base[1], 4.05) || !near(s.base[2], 4.85) {
		t.Errorf("base = %v", s.base)
	}
	if !near(s.change[0], 4.45) || !near(s.change[1], 3.35) || !near(s.change[2], 4.575) {
		t.Errorf("change = %v", s.change)
	}
	if !near(s.delta[0], -0.05) || !near(s.delta[1], -0.2125) || !near(s.delta[2], 0.0714285714285714) {
		t.Errorf("per-pair change = %v", s.delta)
	}
	if s.won != 2 || s.n != 4 {
		t.Errorf("won %d of %d, want 2 of 4", s.won, s.n)
	}
	if s.beyondSpread {
		t.Error("a 0.15 s median gap is inside the base spread of 0.8 s")
	}

	h := summarize(cannedPairs(t, "minstr_s"), false)
	if h.won != 2 || !near(h.base[0], 93) || !near(h.change[0], 90.5) {
		t.Errorf("minstr_s: won %d, medians %g, %g; want 2, 93, 90.5", h.won, h.base[0], h.change[0])
	}

	wide := summarize([]pair{{10, 5}, {10.1, 5}, {9.9, 5}, {10, 5.1}}, true)
	if !wide.beyondSpread || wide.won != 4 {
		t.Errorf("a halved round: beyond spread %v, won %d; want true, 4", wide.beyondSpread, wide.won)
	}
}

func TestPrintTable(t *testing.T) {
	var b bytes.Buffer
	decls := []metricDecl{
		{Name: "round_s", Unit: "s", Better: "lower"},
		{Name: "minstr_s", Unit: "Minstr/s", Better: "higher"},
		{Name: "p50_ms", Unit: "ms", Better: "lower"}, // no values: skipped
	}
	printTable(&b, "paper-sweep", "abc123", decls, map[string][]pair{
		"round_s":  cannedPairs(t, "round_s"),
		"minstr_s": cannedPairs(t, "minstr_s"),
	})
	out := b.String()
	for _, want := range []string{
		"paper-sweep vs abc123",
		"4.3 [4.05, 4.85]",
		"93 [82.75, 98.75]",
		"-5.0% [-21.2%, +7.1%]",
		"2/4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "p50_ms") {
		t.Errorf("a metric without values was printed:\n%s", out)
	}
}

func TestParseResultRejectsFailedRuns(t *testing.T) {
	for _, line := range []string{
		`{"correct":false,"attempted":4,"failed":0,"metrics":{}}`,
		`{"correct":true,"attempted":4,"failed":1,"metrics":{}}`,
		`not json`,
	} {
		if _, err := parseResult(line); err == nil {
			t.Errorf("parseResult(%q) accepted a failed run", line)
		}
	}
}

// TestCheckoutIsTheCommittedTree: the base side is rev's committed tree,
// not the working tree's edits, in a fresh directory under scratch.
func TestCheckoutIsTheCommittedTree(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	root := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		out, err := gitOutput(root, append([]string{"-c", "user.name=t", "-c", "user.email=t@t"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	git("init", "--quiet")
	if err := os.WriteFile(filepath.Join(root, "f"), []byte("committed"), 0o644); err != nil {
		t.Fatal(err)
	}
	git("add", "f")
	git("commit", "--quiet", "-m", "c")
	rev := git("rev-parse", "--short", "HEAD")
	if err := os.WriteFile(filepath.Join(root, "f"), []byte("edited"), 0o644); err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	dir, err := checkout(root, rev, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(dir) != scratch {
		t.Errorf("checkout in %s, want a directory under %s", dir, scratch)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "f")); err != nil || string(b) != "committed" {
		t.Errorf("checked-out f = %q (%v), want the committed tree", b, err)
	}
	if _, err := checkout(root, "no-such-rev", scratch); err == nil {
		t.Error("checkout of an unknown revision succeeded")
	}
	if ents, _ := os.ReadDir(scratch); len(ents) != 1 {
		t.Errorf("scratch holds %d entries, want only the good checkout", len(ents))
	}
}
