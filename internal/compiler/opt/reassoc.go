package opt

import (
	"slices"

	"ilp/internal/ir"
	"ilp/internal/isa"
)

// Reassociate rebalances long linear chains of an associative operator
// into trees, exposing parallelism. This is half of the paper's careful
// unrolling: "we reassociate long strings of additions or multiplications
// to maximize the parallelism" (§4.4). A chain
//
//	c1 = a OP x1; c2 = c1 OP x2; ...; cn = c(n-1) OP xn
//
// (each intermediate used exactly once, all in one block) becomes a
// balanced reduction tree writing the same final register.
//
// For floating point this changes rounding, exactly as the paper's hand
// restructuring did ("this restructuring requires us to use knowledge of
// operator associativity"); it therefore only runs in careful mode, and the
// differential tests compare its outputs with a tolerance.
func Reassociate(f *ir.Func) bool { return new(Scratch).Reassociate(f) }

// Reassociate is the package function Reassociate on s's storage.
func (s *Scratch) Reassociate(f *ir.Func) bool {
	// Function-wide use and def counts (non-SSA safety). Registers the
	// rebalancing creates count zero.
	r := &s.ra
	r.f = f
	r.useCount = zeroed(r.useCount, f.NumRegs())
	r.defCount = zeroed(r.defCount, f.NumRegs())
	var buf [8]ir.Reg
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, u := range in.Uses(buf[:0]) {
				r.useCount[u]++
			}
			if d := in.Def(); d != ir.NoReg {
				r.defCount[d]++
			}
		}
	}

	changed := false
	for _, b := range f.Blocks {
		if r.block(b) {
			changed = true
		}
	}
	return changed
}

// reassoc is a Reassociate call's counts and scratch, reused for every
// chain of every block.
type reassoc struct {
	f                  *ir.Func
	useCount, defCount []int32 // by register, as of the call's start
	// defAt is the index of each register's last definition in the
	// current block, or -1; defined lists the registers it holds, which
	// the next block (of this call or the next) resets.
	defAt   []int32
	defined []ir.Reg
	inChain []bool
	leaves  []ir.Reg
	members []int
	level   []ir.Reg
	next    []ir.Reg
	tree    []ir.Instr
	out     []ir.Instr
}

// count returns c's count for r, zero for registers created since.
func count(c []int32, r ir.Reg) int32 {
	if r < 0 || int(r) >= len(c) {
		return 0
	}
	return c[r]
}

// indexBlock records each register's last definition in b and clears
// the chain marks.
func (r *reassoc) indexBlock(b *ir.Block) {
	for _, d := range r.defined {
		r.defAt[d] = -1
	}
	r.defined = r.defined[:0]
	for len(r.defAt) < r.f.NumRegs() {
		r.defAt = append(r.defAt, -1)
	}
	for i := range b.Instrs {
		if d := b.Instrs[i].Def(); d != ir.NoReg {
			if r.defAt[d] < 0 {
				r.defined = append(r.defined, d)
			}
			r.defAt[d] = int32(i)
		}
	}
	r.inChain = zeroed(r.inChain, len(b.Instrs))
}

// callBetween reports whether a call sits strictly between two indices.
func callBetween(b *ir.Block, lo, hi int) bool {
	for i := lo + 1; i < hi; i++ {
		if b.Instrs[i].Kind == ir.KCall {
			return true
		}
	}
	return false
}

func associative(op isa.Opcode) bool {
	switch op {
	case isa.OpAdd, isa.OpMul, isa.OpFadd, isa.OpFmul:
		return true
	}
	return false
}

func (r *reassoc) block(b *ir.Block) bool {
	f := r.f
	changed := false
	// Index of the defining instruction within this block, for chain
	// discovery.
	r.indexBlock(b)

	for end := len(b.Instrs) - 1; end >= 0; end-- {
		if r.inChain[end] {
			continue
		}
		last := &b.Instrs[end]
		if last.Kind != ir.KOp || !associative(last.Op) {
			continue
		}
		op := last.Op
		// Walk the chain upward: each link is OP(prev, x) or OP(x, prev)
		// where prev is defined in this block by the same op, used once,
		// and defined once in the function.
		leaves, members := r.leaves[:0], r.members[:0]
		cur := end
		for {
			in := &b.Instrs[cur]
			members = append(members, cur)
			isLink := func(x ir.Reg) bool {
				if x < 0 || int(x) >= len(r.defAt) {
					return false
				}
				j := int(r.defAt[x])
				return j >= 0 && j < cur && !r.inChain[j] &&
					b.Instrs[j].Kind == ir.KOp && b.Instrs[j].Op == op &&
					count(r.useCount, x) == 1 && count(r.defCount, x) == 1
			}
			l1, l2 := isLink(in.Src1), isLink(in.Src2)
			// Follow exactly one link. If both operands are links the
			// node is already tree-shaped (e.g. the output of a prior
			// rebalance): treat it as a head so rescanning terminates.
			if l1 != l2 {
				link, other := in.Src1, in.Src2
				if l2 {
					link, other = in.Src2, in.Src1
				}
				leaves = append(leaves, other)
				cur = int(r.defAt[link])
				continue
			}
			// Chain head: both operands are leaves.
			leaves = append(leaves, in.Src2, in.Src1)
			break
		}
		r.leaves, r.members = leaves, members
		if len(members) < 3 {
			continue
		}
		// Rebuilding the tree at the last member's position moves leaf
		// reads later. That is only unsafe for pinned home registers,
		// which a call in between could rewrite.
		minIdx := members[len(members)-1]
		if callBetween(b, minIdx, end) {
			pinnedLeaf := false
			for _, l := range leaves {
				if _, p := f.Pinned[l]; p {
					pinnedLeaf = true
					break
				}
			}
			if pinnedLeaf {
				continue
			}
		}
		// leaves were collected from the tail inward; order is
		// irrelevant for an associative/commutative reduction, but
		// reverse for stable, source-like ordering.
		slices.Reverse(leaves)

		// Build the balanced tree at the position of the final link.
		cls := ir.RInt
		if op == isa.OpFadd || op == isa.OpFmul {
			cls = ir.RFP
		}
		tree := r.tree[:0]
		level := append(r.level[:0], leaves...)
		next := r.next
		for len(level) > 1 {
			next = next[:0]
			for i := 0; i+1 < len(level); i += 2 {
				var dst ir.Reg
				if len(level) == 2 {
					dst = b.Instrs[end].Dst // final result register
				} else {
					dst = f.NewReg(cls)
				}
				tree = append(tree, ir.Instr{Kind: ir.KOp, Op: op, Dst: dst, Src1: level[i], Src2: level[i+1]})
				next = append(next, dst)
			}
			if len(level)%2 == 1 {
				next = append(next, level[len(level)-1])
			}
			level, next = next, level
		}
		r.tree, r.level, r.next = tree, level, next

		// Mark chain members for removal and splice the tree in at the
		// end position. A chain of n members has n+1 leaves and so
		// n tree nodes: the block keeps its length.
		for _, m := range members {
			r.inChain[m] = true
		}
		out := r.out[:0]
		for i := range b.Instrs {
			if r.inChain[i] && i != end {
				continue
			}
			if i == end {
				out = append(out, tree...)
				continue
			}
			out = append(out, b.Instrs[i])
		}
		r.out = out
		b.Instrs = append(b.Instrs[:0], out...)
		// Rebuild bookkeeping after splicing.
		r.indexBlock(b)
		changed = true
		end = len(b.Instrs) // restart scan of this block
	}
	return changed
}
