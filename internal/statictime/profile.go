package statictime

// Profile is an execution profile of a program: per-pc dynamic execution
// and taken-transfer counts, typically folded from a short instruction-
// budgeted pre-run's block counters (sim.ProfileRun). The counts are
// architectural, so one profile is valid for every machine description —
// the execution path does not depend on timing. The simulator's trace
// builder reads it through LikelyTaken.
type Profile struct {
	// Count[pc] is how many times the instruction at pc executed.
	Count []int64
	// Taken[pc] is how many times the control transfer at pc was taken.
	Taken []int64
}

// profileMinCount is the execution count below which a branch's profile is
// treated as noise: specializing a trace needs evidence.
const profileMinCount = 16

// LikelyTaken reports whether the conditional branch at pc was observed
// taken strongly enough — at least 3/4 of at least profileMinCount
// executions — to specialize a trace along its taken edge. Nil-safe: a nil
// profile marks nothing likely.
func (pr *Profile) LikelyTaken(pc int) bool {
	if pr == nil || pc >= len(pr.Count) || pc >= len(pr.Taken) {
		return false
	}
	c := pr.Count[pc]
	return c >= profileMinCount && pr.Taken[pc]*4 >= c*3
}
