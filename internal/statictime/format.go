package statictime

import (
	"fmt"
	"strings"
)

// Format renders the per-block bound table as fixed-width text: one row per
// basic block with its extent, the three span lower bounds and their max,
// conflict-freedom, and the exact clean-entry span (when proven). The
// trailing summary line totals blocks, instructions, and conflict-free
// blocks.
func (a *Analysis) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-18s %5s %5s %5s %5s %5s %5s %5s\n",
		"block", "label", "len", "dep", "width", "unit", "span", "cf", "exact")
	cfBlocks := 0
	for i := range a.Blocks {
		blk := &a.Blocks[i]
		cf, exact := "no", "-"
		if blk.ConflictFree {
			cf = "yes"
			cfBlocks++
			exact = fmt.Sprintf("%d", blk.ExactSpan)
		}
		label := blk.Label
		if len(label) > 18 {
			label = label[:18]
		}
		fmt.Fprintf(&b, "%-6d %-18s %5d %5d %5d %5d %5d %5s %5s\n",
			blk.Leader, label, blk.End-blk.Leader,
			blk.DepHeight, blk.WidthBound, blk.UnitBound, blk.Span,
			cf, exact)
	}
	n := len(a.Prog.Instrs)
	fmt.Fprintf(&b, "%d blocks, %d instructions; %d conflict-free blocks (%s, width %d)\n",
		len(a.Blocks), n, cfBlocks, a.Cfg.Name, a.Cfg.IssueWidth)
	return b.String()
}
