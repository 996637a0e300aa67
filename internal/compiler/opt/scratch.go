package opt

import "ilp/internal/ir"

// Scratch is the working storage of the optimization passes. Each package
// function (ConstFold, LocalCSE, DeadCode, LoopInvariant, Reassociate)
// runs on a fresh Scratch; calling the passes as methods of one Scratch
// reuses its tables instead, which grow to the largest function and block
// they have served and are then only cleared. The compiler keeps one
// Scratch per compile, so the dozens of pass calls of a compile allocate
// their tables about once. A Scratch serves one goroutine at a time; its
// zero value is ready to use.
type Scratch struct {
	consts map[ir.Reg]constVal // ConstFold's per-block constants
	vn     vnState             // LocalCSE's per-block value numbering
	lv     ir.Liveness         // DeadCode's liveness
	live   ir.RegSet           // DeadCode's per-block live set
	del    []bool              // DeadCode's per-block deletion mask
	h      hoister             // LoopInvariant's per-loop state
	ra     reassoc             // Reassociate's counts and chains
}

// zeroed returns s resized to n elements, all zero, reusing s's array
// when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// clearMap empties m, keeping its storage; an empty map costs nothing.
func clearMap[K comparable, V any](m map[K]V) {
	if len(m) > 0 {
		clear(m)
	}
}
