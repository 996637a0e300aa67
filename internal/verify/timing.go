package verify

import (
	"fmt"
	"sort"

	"ilp/internal/statictime"
)

// CheckTiming is the static timing cross-check oracle: given the static
// analysis of a program against a machine and a simulated run's observables
// (minor cycles plus the per-instruction execution and taken-exit counts
// from sim.Options.CountInstrs), it checks
//
//	LowerBound(counts, exits) ≤ minorCycles ≤ UpperBound(counts)
//
// and the analysis's own internal consistency. A violation of the lower
// bound means the simulator issued faster than the dependence heights,
// issue width, or unit multiplicities permit; a violation of the upper
// bound means it stalled longer than any constraint explains — either way
// one of the two timing models is wrong, which is exactly what the oracle
// is for. Bound violations carry per-block blame: the leaders of the
// largest contributors to the bound, so a failure points at a block, not
// just a number.
func CheckTiming(a *statictime.Analysis, minorCycles int64, counts, exits []int64, pass string) []Diagnostic {
	var ds []Diagnostic

	// Internal consistency: a conflict-free block's exact clean-entry span
	// is a realizable execution, so it can never undercut the block's own
	// span lower bound.
	for bi := range a.Blocks {
		b := &a.Blocks[bi]
		if b.ConflictFree && b.ExactSpan < b.Span {
			ds = append(ds, Diagnostic{
				Code: CodeTimingInternal, Severity: SevError, Pass: pass,
				Func: a.Prog.Symbols[b.Leader], Index: b.Leader,
				Msg: fmt.Sprintf("block [%d,%d): exact clean-entry span %d undercuts its own lower bound %d",
					b.Leader, b.End, b.ExactSpan, b.Span),
			})
		}
	}

	lo := a.LowerBound(counts, exits)
	hi := a.UpperBound(counts)
	if lo <= minorCycles && minorCycles <= hi {
		return ds
	}

	code, rel, bound := CodeTimingBelowLower, "below lower", lo
	if minorCycles > hi {
		code, rel, bound = CodeTimingAboveUpper, "above upper", hi
	}
	ds = append(ds, Diagnostic{
		Code: code, Severity: SevError, Pass: pass, Index: -1,
		Msg: fmt.Sprintf("simulated %d minor cycles %s static bound %d (bounds [%d, %d])",
			minorCycles, rel, bound, lo, hi),
	})

	// Blame: the blocks contributing most to the violated bound, so the
	// failure names suspects instead of a bare total.
	type contrib struct {
		leader int
		amount int64
	}
	var cs []contrib
	for bi := range a.Blocks {
		b := &a.Blocks[bi]
		if b.Leader >= len(counts) || counts[b.Leader] == 0 {
			continue
		}
		amount := counts[b.Leader] * b.Span
		if code == CodeTimingAboveUpper {
			amount = 0
			for i := b.Leader; i < b.End && i < len(counts); i++ {
				amount += counts[i] * a.Deltas[i]
			}
		}
		if amount > 0 {
			cs = append(cs, contrib{b.Leader, amount})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].amount > cs[j].amount })
	for i := 0; i < len(cs) && i < 3; i++ {
		bi := a.BlockOf(cs[i].leader)
		b := &a.Blocks[bi]
		ds = append(ds, Diagnostic{
			Code: code, Severity: SevError, Pass: pass,
			Func: a.Prog.Symbols[b.Leader], Index: b.Leader,
			Msg: fmt.Sprintf("block [%d,%d) executed %d times contributes %d cycles to the bound (span %d: dep %d, width %d, unit %d)",
				b.Leader, b.End, counts[b.Leader], cs[i].amount,
				b.Span, b.DepHeight, b.WidthBound, b.UnitBound),
		})
	}
	return ds
}
