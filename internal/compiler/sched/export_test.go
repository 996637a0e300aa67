package sched

import (
	"ilp/internal/ir"
	"ilp/internal/isa"
)

// DiffReference exports diffReference to the package's external tests,
// which compile the benchmark suite.
func DiffReference(g *Graph, instrs []isa.Instr, mem []ir.MemRef, careful bool, lat *[isa.NumClasses]int) error {
	return diffReference(g, instrs, mem, careful, lat)
}
