package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"ilp/internal/isa"
)

// Path is a program's recorded control path: the outcome of every dynamic
// conditional branch (one bit each, 1 = taken), the target of every dynamic
// jr, and the values the program printed. It is everything of a run's
// semantics that a cache-free machine's timing can observe (DESIGN.md §4,
// "Record once, walk the rest"), so a Path recorded on one machine times
// the program on any other cache-free machine whose program shares the
// path: every schedule of one compiler front does, since the scheduler
// permutes instructions only within blocks and never moves a branch.
//
// A Path is open from NewPath until Close. Walks may start on an open path:
// a walk follows the recording as the recording run publishes it, at its
// polls, and waits whenever it catches up. A closed path is immutable and
// may back any number of concurrent walks.
type Path struct {
	// Written by the recording run only; walks read pub.
	bits    []uint64 // branch outcomes, bit i of the path at bits[i/64] bit i%64
	n       int64    // branch outcomes recorded
	targets []int32  // jr targets in path order
	output  []isa.Value
	// instrs is the static length of the program the path is for, which
	// every program sharing the path has too.
	instrs  int
	started bool

	mu    sync.Mutex
	pub   pathView      // the part of the path walks may read
	grown chan struct{} // closed at the next publish; made by a waiting walk
}

// pathView is the part of a path a walk may read without locking: whole
// words of outcomes while the path is open (the recording still writes the
// last, partial word), and all of it once the path is closed.
type pathView struct {
	bits    []uint64
	n       int64
	targets []int32
	closed  bool
	failed  bool
}

// ErrRecordingFailed is the error of a walk whose path was closed with a
// failed recording. The path's prefix holds no verdict on the walked
// program: executing it is the way to learn its own outcome.
var ErrRecordingFailed = errors.New("sim: the walked path's recording failed")

// NewPath returns an open, empty path for recording a run of p.
func NewPath(p *isa.Program) *Path { return &Path{instrs: len(p.Instrs)} }

// publish makes what the recording has appended so far readable by walks
// and wakes the walks that wait for it.
func (p *Path) publish() {
	whole := p.n >> 6
	p.mu.Lock()
	p.pub = pathView{bits: p.bits[:whole], n: whole << 6, targets: p.targets}
	p.wake()
	p.mu.Unlock()
}

// wake releases the walks waiting on p.grown; p.mu is held.
func (p *Path) wake() {
	if p.grown != nil {
		close(p.grown)
		p.grown = nil
	}
}

// Close closes the path, from the goroutine that recorded it: err is the
// recording's failure, nil when the recording run succeeded. Walks then
// read the rest of the path, or fail with ErrRecordingFailed. A failed
// path keeps none of what it recorded.
func (p *Path) Close(err error) {
	p.mu.Lock()
	if err != nil {
		p.bits, p.n, p.targets, p.output = nil, 0, nil, nil
	}
	p.pub = pathView{bits: p.bits, n: p.n, targets: p.targets, closed: true, failed: err != nil}
	p.wake()
	p.mu.Unlock()
}

// view returns the part of the path a walk may read now.
func (p *Path) view() pathView {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pub
}

// more extends v, the view of path of a walk that has retired instrs
// instructions, blocking until the recording publishes more of the path or
// closes it. It fails with ErrRecordingFailed if the recording failed, with
// errPathEnded if the path is closed with nothing past v, and with the
// context's error if ctx is done first.
func (v *pathView) more(ctx context.Context, path *Path, instrs int64) error {
	for {
		path.mu.Lock()
		pub := path.pub
		if pub.n > v.n || len(pub.targets) > len(v.targets) || pub.closed != v.closed {
			path.mu.Unlock()
			*v = pub
			if pub.failed {
				return ErrRecordingFailed
			}
			return nil
		}
		if pub.closed {
			path.mu.Unlock()
			return errPathEnded(instrs)
		}
		if path.grown == nil {
			path.grown = make(chan struct{})
		}
		grown := path.grown
		path.mu.Unlock()
		select {
		case <-grown:
		case <-ctx.Done():
			return ctxErr(ctx)
		}
	}
}

// appendBits appends the low n (≤ 64) bits of v, which has no higher bit
// set, in O(1).
func (p *Path) appendBits(v uint64, n int64) {
	if n == 0 {
		return
	}
	off := uint(p.n & 63)
	if off == 0 {
		p.bits = append(p.bits, v)
	} else {
		p.bits[len(p.bits)-1] |= v << off
		if int64(off)+n > 64 {
			p.bits = append(p.bits, v>>(64-off))
		}
	}
	p.n += n
}

// appendBit appends one branch outcome.
func (p *Path) appendBit(taken bool) {
	off := uint(p.n & 63)
	if off == 0 {
		p.bits = append(p.bits, 0)
	}
	if taken {
		p.bits[len(p.bits)-1] |= 1 << off
	}
	p.n++
}

// appendRepeat appends k copies of the low n (≤ 64) bits of v, a stable
// spin's k iterations through one exit: a word of whole copies at a time
// when a copy fits in half a word.
func (p *Path) appendRepeat(v uint64, n, k int64) {
	if n == 0 || k == 0 {
		return
	}
	per := 64 / n // copies per word
	if per < 2 {
		for range k {
			p.appendBits(v, n)
		}
		return
	}
	var w uint64
	for i := range per {
		w |= v << uint(i*n)
	}
	for ; k >= per; k -= per {
		p.appendBits(w, per*n)
	}
	if k > 0 {
		p.appendBits(w&(1<<uint(k*n)-1), k*n)
	}
}

// peek returns the up to 64 branch outcomes of bits from position pos on,
// bit i being the outcome at pos+i; bits past the end of the slice read 0.
func peek(bits []uint64, pos int64) uint64 {
	i, off := pos>>6, uint(pos&63)
	if i >= int64(len(bits)) {
		return 0
	}
	w := bits[i] >> off
	if off != 0 && i+1 < int64(len(bits)) {
		w |= bits[i+1] << (64 - off)
	}
	return w
}

// timingOnly rejects the options a recording or a walk cannot serve: the
// walker models no caches and calls no hooks, and a recording takes the
// options of the walks that follow it.
func timingOnly(opts Options) error {
	if opts.OnIssue != nil || opts.OnTrace != nil {
		return fmt.Errorf("sim: a recorded or walked run takes no OnIssue or OnTrace hook")
	}
	if m := opts.Machine; m != nil && (m.ICache != nil || m.DCache != nil) {
		return fmt.Errorf("sim: machine %s models caches; a recorded or walked run needs a cache-free machine", m.Name)
	}
	return nil
}

// RecordIntoCtx is RunIntoCtx on a cache-free, hook-free machine that also
// records the run's control path into path, an open path from NewPath for
// p's length that nothing has recorded into yet, and publishes it to
// following walks as the run goes. The run itself is an ordinary fast-path
// run, and res is exactly what RunIntoCtx would fill; the recorder appends
// only at control transfers and trace exits. RecordIntoCtx leaves path
// open: the caller closes it with the returned error.
func (e *Engine) RecordIntoCtx(ctx context.Context, p *isa.Program, opts Options, res *Result, path *Path) error {
	if err := timingOnly(opts); err != nil {
		return err
	}
	if path == nil || path.instrs != len(p.Instrs) || path.started {
		return fmt.Errorf("sim: path is not an unrecorded path for a program of %d instructions", len(p.Instrs))
	}
	path.started = true
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() == nil {
		// The fast path polls, and so publishes, only under a pollable
		// context.
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	e.rec = path
	defer func() { e.rec = nil }() // a panicking run must not leave a reused engine recording
	if err := e.RunIntoCtx(ctx, p, opts, res); err != nil {
		return err
	}
	path.output = append([]isa.Value(nil), res.Output...)
	return nil
}

// WalkIntoCtx times p on a cache-free, hook-free machine from the recorded
// path instead of executing it: the walker takes runFast's exact issue
// steps, trace-entry checks, trace-exit bookkeeping, stable spins and poll
// points, but moves no values. It reads each conditional branch's outcome
// and each jr's target off the path, picks a trace's exit by reading one
// outcome per guard, and copies the recorded output. res is then
// bit-identical to what RunIntoCtx would fill for every program that shares
// the path, InstrCounts and TakenExits included. On an open path the walk
// follows the recording, waiting whenever it catches up. A walk fails if
// the path runs out, or has outcomes or targets left over at halt; it fails
// with ErrRecordingFailed if the path's recording failed; and it fails on
// the instruction limit and on cancellation exactly where runFast would.
func (e *Engine) WalkIntoCtx(ctx context.Context, p *isa.Program, path *Path, opts Options, res *Result) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return ctxErr(ctx)
	}
	if err := timingOnly(opts); err != nil {
		return err
	}
	if _, _, err := validate(p, opts); err != nil {
		return err
	}
	if path == nil || path.instrs != len(p.Instrs) {
		return fmt.Errorf("sim: path was not recorded from a program of %d instructions", len(p.Instrs))
	}
	v := path.view()
	if v.failed {
		return ErrRecordingFailed
	}
	// Memory and registers are left as the last executing run left them:
	// the walk reads neither, and the next Reset clears what that run
	// dirtied.
	if err := e.arm(p, opts); err != nil {
		return err
	}
	maxInstrs := opts.MaxInstructions
	if maxInstrs == 0 {
		maxInstrs = DefaultMaxInstructions
	}
	if err := e.walk(ctx, path, &v, maxInstrs); err != nil {
		return err
	}
	e.fillResult(res, path.output)
	return nil
}

// errPathEnded reports a walk whose path ran out before the program halted.
func errPathEnded(instrs int64) error {
	return fmt.Errorf("sim: recorded path ended after %d instructions, before the program halted", instrs)
}

// walk is runFast without semantics, on a cache-free machine: the same
// issue steps, trace entry and exit bookkeeping and poll points, with every
// control decision read off path through v, the walk's view of it, which
// grows (v.more) only where the walk catches up with an open path. It
// stays a loop of its own: folded into runFast as a mode, it slowed both
// the walks and the executing runs. The comments in runFast explain each
// step; here they note only where the two differ.
func (e *Engine) walk(ctx context.Context, path *Path, v *pathView, maxInstrs int64) error {
	width := int64(e.cfg.IssueWidth)
	takenEnds := e.cfg.TakenBranchEndsGroup
	redirect := int64(e.cfg.BranchRedirect)
	dec := e.dec
	unitFree := e.unitFree
	ready := &e.ready
	enter, exit := e.enter, e.exit
	scheds := e.scheds
	bits, nbits, targets := v.bits, v.n, v.targets
	var pos int64 // next branch outcome
	var tpos int  // next jr target

	var cycle, inCycle, barrier int64
	barrierIsBr := false
	lastComplete := e.lastComplete
	instrs, groups := e.instrs, e.groups
	stalls := e.stalls
	pc := e.prog.Entry

	checkAt := nextCheck(ctx.Done(), instrs, maxInstrs)
	skipCheck := false
	stableIdx := 0

	for {
		idx := pc
		d := &dec[idx]
		next := idx + 1
		var taken bool

		// 1.–5. The issue steps, without the caches and the address
		// computation (a cache-free machine's timing reads no address).
		var over int64
		if inCycle >= width {
			over = 1
		}
		slot := cycle + over
		stalls.Width += over
		if barrier > slot {
			if barrierIsBr {
				stalls.Branch += barrier - slot
			}
			slot = barrier
		}
		issue := slot
		m := max(issue, max(ready[d.src1], ready[d.src2]))
		stalls.Data += m - issue
		issue = m
		lat := d.lat
		if d.flags&fDst != 0 {
			m = max(issue, ready[d.dst]-lat)
			stalls.Write += m - issue
			issue = m
		}
		if d.flags&fUnit != 0 {
			best := int(d.unitOff)
			bv := unitFree[best]
			for i := best + 1; i < int(d.unitOff)+int(d.unitLen); i++ {
				if v := unitFree[i]; v < bv {
					bv, best = v, i
				}
			}
			m = max(issue, bv)
			stalls.Unit += m - issue
			issue = m
			unitFree[best] = issue + d.issueLat
		}
		if issue > cycle {
			cycle = issue
			inCycle = 1
			groups++
		} else {
			if inCycle == 0 {
				groups++
			}
			inCycle++
		}
		complete := issue + lat
		if d.flags&fDst != 0 {
			ready[d.dst] = complete
		}
		lastComplete = max(lastComplete, complete)

		// 6. No semantics: straight-line instructions fall out of the
		// switch, and control transfers read their outcome off the path.
		switch d.op {
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBle, isa.OpBgt:
			for pos >= nbits {
				if err := v.more(ctx, path, instrs); err != nil {
					return err
				}
				bits, nbits, targets = v.bits, v.n, v.targets
			}
			if bits[pos>>6]>>uint(pos&63)&1 != 0 {
				taken, next = true, int(d.target)
			}
			pos++
			goto boundary
		case isa.OpJ, isa.OpJal:
			taken, next = true, int(d.target)
			goto boundary
		case isa.OpJr:
			for tpos >= len(targets) {
				if err := v.more(ctx, path, instrs); err != nil {
					return err
				}
				bits, nbits, targets = v.bits, v.n, v.targets
			}
			t := int(targets[tpos])
			tpos++
			if uint(t) >= uint(len(dec)) {
				return fmt.Errorf("sim: pc %d out of range", t)
			}
			taken, next = true, t
			goto boundary
		case isa.OpHalt:
			instrs++
			exit[idx]++
			goto out
		case opOutOfRange:
			return fmt.Errorf("sim: pc %d out of range", idx)
		}
		pc = next
		instrs++
		continue

	boundary:
		pc = next
		instrs++
		if taken {
			exit[idx]++
			enter[next]++
			if takenEnds {
				if b := issue + lat + redirect; b > barrier {
					barrier, barrierIsBr = b, true
				}
			}
		}

		// Trace replay under runFast's entry conditions; the path's guard
		// outcomes pick the exit in O(1) instead of traceExecU.
		for scheds != nil && barrierIsBr && barrier > cycle {
			tr := scheds[pc]
			if tr == nil {
				break
			}
			var exitIdx int
			if skipCheck {
				skipCheck = false
				sEx := &tr.exits[stableIdx]
				var overS int64
				if sEx.inCycle >= width {
					overS = 1
				}
				kMax := (checkAt - instrs + sEx.n - 1) / sEx.n
				var k int64
				for {
					x, used, ok := tr.pick(peek(bits, pos), nbits-pos)
					if !ok {
						if err := v.more(ctx, path, instrs+k*sEx.n); err != nil {
							return err
						}
						bits, nbits, targets = v.bits, v.n, v.targets
						continue
					}
					pos += used
					if exitIdx = x; exitIdx != stableIdx {
						break
					}
					k++
					if k >= kMax {
						exitIdx = -1
						break
					}
				}
				if k > 0 {
					adv := k * sEx.barrierOff
					cycle += adv
					barrier += adv
					stalls.Width += k * (overS + sEx.widthStalls)
					stalls.Branch += k * (sEx.barrierOff - sEx.cycleAdv - overS + sEx.branchStalls)
					stalls.Data += k * sEx.dataStalls
					stalls.Write += k * sEx.writeStalls
					groups += k * sEx.groups
					instrs += k * sEx.n
					e.replays += k
					sLast := barrier - sEx.barrierOff
					for _, w := range sEx.writes {
						ready[w.reg] = sLast + w.off
					}
					lastComplete = max(lastComplete, sLast+sEx.maxComplete)
					if sEx.taken {
						exit[sEx.at] += k
						enter[pc] += k
					}
					for _, j := range sEx.jumps {
						exit[j.at] += k
						enter[j.target] += k
					}
				}
				if exitIdx < 0 {
					skipCheck = true
					if instrs >= checkAt {
						var err error
						if checkAt, err = e.poll(ctx, instrs, maxInstrs); err != nil {
							return err
						}
					}
					continue
				}
			} else {
				ok := true
				if lastComplete > barrier {
					for _, r := range tr.checkRegs {
						if ready[r] > barrier {
							ok = false
							break
						}
					}
				}
				if !ok {
					break
				}
				x, used, ok := tr.pick(peek(bits, pos), nbits-pos)
				for !ok {
					if err := v.more(ctx, path, instrs); err != nil {
						return err
					}
					bits, nbits, targets = v.bits, v.n, v.targets
					x, used, ok = tr.pick(peek(bits, pos), nbits-pos)
				}
				pos += used
				exitIdx = x
			}
			e.replays++
			s := barrier
			var over int64
			if inCycle >= width {
				over = 1
			}
			ex := &tr.exits[exitIdx]
			stalls.Width += over + ex.widthStalls
			stalls.Branch += s - (cycle + over) + ex.branchStalls
			stalls.Data += ex.dataStalls
			stalls.Write += ex.writeStalls
			cycle = s + ex.cycleAdv
			inCycle = ex.inCycle
			groups += ex.groups
			for _, w := range ex.writes {
				ready[w.reg] = s + w.off
			}
			lastComplete = max(lastComplete, s+ex.maxComplete)
			instrs += ex.n
			barrier = s + ex.barrierOff
			pc = int(ex.target)
			for _, j := range ex.jumps {
				exit[j.at]++
				enter[j.target]++
			}
			if ex.taken {
				exit[ex.at]++
				enter[pc]++
			} else if ex.at >= 0 {
				e.mispaths++
			}
			if ex.stable {
				skipCheck = true
				stableIdx = exitIdx
			}
			if instrs >= checkAt {
				var err error
				if checkAt, err = e.poll(ctx, instrs, maxInstrs); err != nil {
					return err
				}
			}
		}
		skipCheck = false
		if instrs >= checkAt {
			var err error
			if checkAt, err = e.poll(ctx, instrs, maxInstrs); err != nil {
				return err
			}
		}
	}

out:
	e.lastComplete = lastComplete
	e.instrs, e.groups = instrs, groups
	e.stalls = stalls
	for !v.closed {
		if err := v.more(ctx, path, instrs); err != nil {
			return err
		}
	}
	if pos != v.n || tpos != len(v.targets) {
		return fmt.Errorf("sim: program halted with %d branch outcomes and %d jump targets of its recorded path left over",
			v.n-pos, len(v.targets)-tpos)
	}
	e.foldCounts()
	return nil
}
