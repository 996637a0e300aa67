package opt

import (
	"ilp/internal/ir"
	"ilp/internal/isa"
)

// DeadCode removes pure instructions whose results are never used, using
// global liveness. Iterates to a fixed point (removing an instruction can
// make its operands' producers dead).
func DeadCode(f *ir.Func) bool { return new(Scratch).DeadCode(f) }

// DeadCode is the package function DeadCode on s's storage.
func (s *Scratch) DeadCode(f *ir.Func) bool {
	any := false
	for {
		if !s.dcePass(f) {
			return any
		}
		any = true
	}
}

// removable reports whether the instruction can be deleted when its result
// is dead. Traps must be preserved: integer divide/remainder stay put, as
// does float-to-int conversion (range trap).
func removable(in *ir.Instr) bool {
	switch in.Kind {
	case ir.KOp:
		switch in.Op {
		case isa.OpDiv, isa.OpRem, isa.OpCvtfi:
			return false
		}
		return in.Op.Info().HasDst
	case ir.KLoadVar:
		return true
	case ir.KLoadElem:
		// Loads cannot trap here (compilers for this study assume
		// in-bounds programs; the reference interpreter checks bounds
		// and the test suite runs both).
		return true
	}
	return false
}

func (s *Scratch) dcePass(f *ir.Func) bool {
	lv := &s.lv
	lv.Compute(f)
	changed := false
	var buf [8]ir.Reg
	// One live set and one deletion mask serve every block.
	live := ir.RegSet(zeroed(s.live, (f.NumRegs()+63)/64))
	s.live = live
	for _, b := range f.Blocks {
		copy(live, lv.Out(b))
		// Backward scan; mark deletions.
		del := zeroed(s.del, len(b.Instrs))
		s.del = del
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			d := in.Def()
			if _, pinned := f.Pinned[d]; pinned {
				// Home registers carry variables across functions;
				// writes to them are never dead within one function's
				// view.
				for _, u := range in.Uses(buf[:0]) {
					live.Add(u)
				}
				continue
			}
			if d != ir.NoReg && !live.Has(d) && removable(in) {
				del[i] = true
				changed = true
				continue
			}
			if d != ir.NoReg {
				live.Remove(d)
			}
			for _, u := range in.Uses(buf[:0]) {
				live.Add(u)
			}
		}
		if changed {
			kept := b.Instrs[:0]
			for i := range b.Instrs {
				if !del[i] {
					kept = append(kept, b.Instrs[i])
				}
			}
			b.Instrs = kept
		}
	}
	return changed
}
