package isa

import (
	"fmt"
	"strings"
)

// Program is a fully linked executable image: a flat instruction stream with
// resolved branch targets plus an initialized data segment. Word 0 of the
// data segment corresponds to memory address 0; the code generator places
// globals at low addresses and the stack at the top of memory.
type Program struct {
	Instrs []Instr
	// Data is the initial contents of the data segment, in words.
	// Floating-point values are stored as IEEE-754 bit patterns.
	Data []int64
	// Entry is the index of the first instruction to execute.
	Entry int
	// Symbols maps instruction indices to labels (function entries and
	// basic-block labels), for disassembly.
	Symbols map[int]string
	// StackTop is the initial stack pointer, in words. Zero means the
	// simulator should use its default memory size.
	StackTop int64
	// Blocks lists the indices of basic-block leaders in ascending order,
	// if known. It is informational (used by diagnostics and tests).
	Blocks []int
}

// Validate checks every instruction and every branch target.
func (p *Program) Validate() error {
	if p.Entry < 0 || p.Entry >= len(p.Instrs) {
		return fmt.Errorf("program: entry %d out of range (%d instructions)", p.Entry, len(p.Instrs))
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if err := in.Validate(); err != nil {
			return fmt.Errorf("instruction %d: %w", i, err)
		}
		if in.Op.Info().Branch && in.Op != OpJr {
			if in.Target < 0 || in.Target >= len(p.Instrs) {
				return fmt.Errorf("instruction %d (%s): target %d out of range", i, in.Op, in.Target)
			}
		}
	}
	return nil
}

// Leaders marks the basic-block leaders of a validated program: the entry,
// every direct transfer target, every instruction after a transfer or halt,
// and every index in Blocks. (Blocks is informational and may be absent, so
// the rest is re-derived; an extra leader from it can only split a block.)
func (p *Program) Leaders() []bool {
	n := len(p.Instrs)
	leader := make([]bool, n)
	leader[0], leader[p.Entry] = true, true
	for _, b := range p.Blocks {
		if b >= 0 && b < n {
			leader[b] = true
		}
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		info := in.Op.Info()
		if !info.Branch && in.Op != OpHalt {
			continue
		}
		if i+1 < n {
			leader[i+1] = true
		}
		if info.Branch && in.Op != OpJr {
			leader[in.Target] = true
		}
	}
	return leader
}

// Disassemble renders the whole program as assembly text with labels.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for i := range p.Instrs {
		if sym, ok := p.Symbols[i]; ok {
			fmt.Fprintf(&b, "%s:\n", sym)
		}
		fmt.Fprintf(&b, "%6d\t%s\n", i, p.Instrs[i].String())
	}
	return b.String()
}

// ClassMix counts static instructions per class.
func (p *Program) ClassMix() [NumClasses]int64 {
	var mix [NumClasses]int64
	for i := range p.Instrs {
		mix[p.Instrs[i].Op.Class()]++
	}
	return mix
}
