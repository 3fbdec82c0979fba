package cpu

import (
	"encoding/binary"
	"slices"

	"repro/internal/isa"
)

// Schedule lock. A generated stressmark is one loop whose timing —
// which uop issues on which unit in which cycle — settles into a short
// period within the first ~10% of a capture, while its data never
// repeats: the accumulators keep changing, and with them the toggle
// energy of every issue. Once the timing provably repeats, a locked
// cycle runs only what the data needs: the thread steps the full model
// made in that cycle of the recorded period, the toggle-energy
// expression of each recorded issue in the recorded order, and every
// other energy term as a recorded constant, added in the same order.
// Decode, rename, queue scans, dependency checks, result-bus booking,
// MSHRs, cache probes and fingerprinting are skipped.
//
// Soundness has three parts.
//
//  1. Static (checkLoop, once per program): the loop's conditional
//     branches read only the zero flag of a counter dec right before
//     them, nothing else writes a counter, and no loop instruction
//     writes a memory base. So while every counter stays above zero, the
//     uop stream's timing inputs — pc sequence, branch outcomes,
//     addresses, barrier ids — are fixed by the pc alone.
//  2. Proof of the lock (BeginLockProbe, TryLock): every counter
//     exceeds the uops its thread can step before the capture ends, the
//     relative timing state (appendTimingState) is equal at the two
//     ends of a candidate period, and the period had no L1 miss (so
//     the caches' contents cannot change). The model is deterministic
//     in that state and the fixed uop stream, so every later period
//     repeats it, shifted by the period's sequence-number advance. The
//     chip records the next period and then replays it.
//  3. Fallback: when a probe fails the chip simply keeps running the
//     full model.
//
// Bit-identity: every per-cycle output is either recorded (unit issues,
// decode count, fingerprint words, counters) or recomputed by the same
// float operations in the same order (EnergyPJ): the decode constants,
// which start from zero, collapse into one recorded prefix; each issue
// adds toggleEnergy(...) + sched as executeFP does, and as execute does
// with its memory-level extra at 0, which it is for every issue of a
// period without L1 misses; the machine-level constants follow one by
// one.

// uopVals is the data a uop contributes to toggle energy.
type uopVals struct{ src, res isa.Value }

// lockCore is one attached core's share of the lock.
type lockCore struct {
	c *core
	// base is the thread's sequence number when the recording started
	// and n the uops it stepped over the period; cur is the base of the
	// period being replayed (base + n·(periods replayed + 1)).
	base, n, cur uint64
	// steps[k] is the number of uops stepped by the end of period cycle
	// k, relative to base; retired[k] the core's retired count at
	// boundary k of the recorded period.
	steps, retired []uint64
	// lag is the largest distance from the thread's stepped count at a
	// cycle's end back to a uop issued in that cycle; ring holds the
	// toggle data of the last len(ring) > lag uops, indexed by
	// seq & mask.
	lag  int64
	ring []uopVals
	mask uint64
}

// lockIssue is one recorded issue: the uop, by core and sequence
// offset, and its unit's last-operand state.
type lockIssue struct {
	tpl    *uopTemplate
	ls, lr *isa.Value
	core   int32
	off    int64 // uop seq − lockCore.base
}

// lockCycle is one recorded cycle of the period.
type lockCycle struct {
	prefix   float64 // EnergyPJ after decode
	issueEnd int32   // end of this cycle's lockState.issues
	constEnd int32   // end of this cycle's lockState.consts
	res      CycleResult
}

// lockFP is one memoized locked StateFingerprint: its value for the
// zero-flag pattern mask (bit i: lockState.cores[i]'s thread).
type lockFP struct {
	mask, fp uint64
	ok       bool
}

// lockState is the chip's lock record and replay cursor. It lives with
// the chip, so a pooled chip reuses every buffer.
type lockState struct {
	cores  []lockCore
	cycles []lockCycle
	issues []lockIssue
	consts []float64
	prefix float64 // EnergyPJ after the current cycle's decode
	// words holds each period cycle's fingerprint words (nWords each);
	// fps[k] memoizes cycle k's StateFingerprint for one pattern of the
	// threads' zero flags, which rarely changes from period to period.
	words  []uint64
	nWords int
	fps    []lockFP
	// stats and retired are the chip counters at boundaries 0..P of
	// the recorded period.
	stats   []Stats
	retired []uint64
	// A probe started at cycle probeAt with misses0 L1 misses so far
	// and timing snapshot snap0; snap1 is the snapshot it is tested
	// against. period is the proven period being recorded.
	probeAt, misses0 uint64
	snap0, snap1     []uint64
	period           int

	// Replay cursor: pos locked cycles done; k is the next cycle's
	// index in the period and at, cat its first issue and constant.
	pos     uint64
	k       int
	at, cat int32
}

// Locked reports whether the chip replays a proven schedule lock.
func (ch *Chip) Locked() bool { return ch.locked }

// lockable reports whether every attached thread passed the static
// check, is unbounded, sits inside its loop, and has every loop counter
// above the uops it can step in cyclesLeft more cycles (at most
// DecodeWidth consumed per cycle plus the decoder's lookahead). Then
// every branch of the loop is taken from now to the end of the run.
func (ch *Chip) lockable(cyclesLeft uint64) bool {
	budget := cyclesLeft*uint64(ch.cfg.DecodeWidth) + 1
	attached := false
	for _, m := range ch.modules {
		for _, c := range m.cores {
			t := c.th
			if t == nil {
				continue
			}
			if !t.loop.ok || t.maxInstrs > 0 || t.done || t.pc < 0 || t.pc >= len(t.tmpl) || !t.tmpl[t.pc].inLoop {
				return false
			}
			for r, isCounter := range t.loop.counter {
				if isCounter && t.regs[r].Lo <= budget {
					return false
				}
			}
			attached = true
		}
	}
	return attached
}

// BeginLockProbe starts a probe for a period at the current boundary
// of a run that ends cyclesLeft cycles from now: it snapshots the
// timing state. It reports false when the chip is not lockable.
func (ch *Chip) BeginLockProbe(cyclesLeft uint64) bool {
	if ch.locked || ch.recording || !ch.lockable(cyclesLeft) {
		return false
	}
	if ch.lk == nil {
		ch.lk = &lockState{}
	}
	lk := ch.lk
	lk.probeAt, lk.misses0 = ch.cycle, ch.Stats().L1Misses
	lk.snap0, _ = ch.appendTimingState(lk.snap0[:0], nil)
	ch.probing = true
	return true
}

// AbortLockProbe ends a probe.
func (ch *Chip) AbortLockProbe() { ch.probing = false }

// TryLock tests the P cycles since BeginLockProbe as a period: the
// timing snapshots at both ends must be equal and the cycles free of
// L1 misses (the loop counters were checked at BeginLockProbe). The
// caller guarantees that any stalls it injects repeat with period P.
// On success the probe ends and the chip records the next period,
// which the proof says repeats this one, and locks once it is
// recorded (Locked); TryLock reports whether that happened. On failure
// the probe goes on.
func (ch *Chip) TryLock() bool {
	if !ch.probing {
		return false
	}
	lk := ch.lk
	p := int(ch.cycle - lk.probeAt)
	if p == 0 || ch.Stats().L1Misses != lk.misses0 {
		return false
	}
	var same bool
	if lk.snap1, same = ch.appendTimingState(lk.snap1[:0], lk.snap0); !same {
		return false
	}
	ch.probing = false
	ch.beginRecording(p)
	return true
}

// beginRecording starts recording the p-cycle period that begins at
// the current boundary.
func (ch *Chip) beginRecording(p int) {
	lk := ch.lk
	lk.period = p
	lk.cores = lk.cores[:0]
	for _, m := range ch.modules {
		for _, c := range m.cores {
			if c.th == nil {
				continue
			}
			c.lockIdx = int32(len(lk.cores))
			if len(lk.cores) < cap(lk.cores) {
				lk.cores = lk.cores[:len(lk.cores)+1]
			} else {
				lk.cores = append(lk.cores, lockCore{})
			}
			lc := &lk.cores[len(lk.cores)-1]
			lc.c, lc.base, lc.n, lc.cur, lc.lag = c, c.th.seq, 0, 0, 0
			lc.steps = lc.steps[:0]
			lc.retired = append(lc.retired[:0], c.retired)
		}
	}
	lk.cycles = lk.cycles[:0]
	lk.issues = lk.issues[:0]
	lk.consts = lk.consts[:0]
	lk.words = lk.words[:0]
	lk.stats = append(lk.stats[:0], ch.Stats())
	lk.retired = append(lk.retired[:0], ch.Retired())
	ch.recording = true
}

// lock switches to replaying the recorded period.
func (ch *Chip) lock() {
	lk := ch.lk
	ch.recording = false
	for i := range lk.cores {
		lk.cores[i].n = lk.cores[i].c.th.seq - lk.cores[i].base
	}
	// Size each core's data ring from the largest issue lag.
	at := int32(0)
	for k := range lk.cycles {
		end := lk.cycles[k].issueEnd
		for _, ev := range lk.issues[at:end] {
			lc := &lk.cores[ev.core]
			if lag := int64(lc.steps[k]) - ev.off; lag > lc.lag {
				lc.lag = lag
			}
		}
		at = end
	}
	for i := range lk.cores {
		lc := &lk.cores[i]
		size := 16
		for int64(size) <= lc.lag {
			size *= 2
		}
		if cap(lc.ring) < size {
			lc.ring = make([]uopVals, size)
		}
		lc.ring = lc.ring[:size]
		lc.mask = uint64(size - 1)
		lc.cur = lc.base + lc.n
		// Seed the ring with the stepped uops the full model still
		// holds: queue entries and the decoder's lookahead.
		c, t := lc.c, lc.c.th
		put := func(u *Uop) {
			if int64(t.seq-u.Seq) <= lc.lag {
				lc.ring[u.Seq&lc.mask] = uopVals{u.SrcA, u.Result}
			}
		}
		for j := range c.intQ {
			put(&c.intQ[j].u)
		}
		for j := range c.fpQ {
			put(&c.fpQ[j].u)
		}
		if t.primed && t.curOK {
			put(&t.cur)
		}
	}
	lk.fps = append(lk.fps[:0], make([]lockFP, len(lk.cycles))...)
	lk.pos, lk.k, lk.at, lk.cat = 0, 0, 0, 0
	ch.locked = true
}

// LockedCycles returns the cycles replayed under the schedule lock
// since the last Reset.
func (ch *Chip) LockedCycles() uint64 {
	if !ch.locked {
		return 0
	}
	return ch.lk.pos
}

// noteIssue records one issue of the period being recorded.
func (lk *lockState) noteIssue(c *core, u *Uop, ls, lr *isa.Value) {
	lk.issues = append(lk.issues, lockIssue{
		tpl: u.tpl, ls: ls, lr: lr, core: c.lockIdx,
		off: int64(u.Seq - lk.cores[c.lockIdx].base),
	})
}

// recordCycle closes one recorded cycle, and locks the chip once the
// whole period is recorded.
func (ch *Chip) recordCycle() {
	lk := ch.lk
	lk.cycles = append(lk.cycles, lockCycle{
		prefix:   lk.prefix,
		issueEnd: int32(len(lk.issues)),
		constEnd: int32(len(lk.consts)),
		res:      CycleResult{UnitIssues: ch.res.UnitIssues, Decoded: ch.res.Decoded},
	})
	for i := range lk.cores {
		lc := &lk.cores[i]
		lc.steps = append(lc.steps, lc.c.th.seq-lc.base)
		lc.retired = append(lc.retired, lc.c.retired)
	}
	n := len(lk.words)
	lk.words = ch.appendFPWords(lk.words)
	lk.nWords = len(lk.words) - n
	lk.stats = append(lk.stats, ch.Stats())
	lk.retired = append(lk.retired, ch.Retired())
	if len(lk.cycles) == lk.period {
		ch.lock()
	}
}

// stepLocked replays one cycle of the locked period.
func (ch *Chip) stepLocked() CycleResult {
	lk := ch.lk
	k := lk.k
	cyc := &lk.cycles[k]
	for i := range lk.cores {
		lc := &lk.cores[i]
		t := lc.c.th
		// The lock's proof keeps pc inside the loop: no end-of-stream
		// check is needed.
		for target := lc.cur + lc.steps[k]; t.seq < target; {
			v := &lc.ring[t.seq&lc.mask]
			_, _, v.src, v.res = t.exec(&t.tmpl[t.pc])
		}
	}
	e, sched := cyc.prefix, ch.pm.SchedPJPerIssue
	for i := lk.at; i < cyc.issueEnd; i++ {
		ev := &lk.issues[i]
		lc := &lk.cores[ev.core]
		v := &lc.ring[uint64(int64(lc.cur)+ev.off)&lc.mask]
		e += toggleEnergy(ev.tpl, ev.ls, ev.lr, v.src, v.res) + sched
	}
	for _, pj := range lk.consts[lk.cat:cyc.constEnd] {
		e += pj
	}
	lk.at, lk.cat = cyc.issueEnd, cyc.constEnd
	if lk.k = k + 1; lk.k == len(lk.cycles) {
		lk.k, lk.at, lk.cat = 0, 0, 0
		for i := range lk.cores {
			lk.cores[i].cur += lk.cores[i].n
		}
	}
	lk.pos++
	ch.cycle++
	res := cyc.res
	res.EnergyPJ = e
	return res
}

// boundary splits the current locked boundary into the recorded
// period boundary r it repeats and the number of periods q since then.
func (lk *lockState) boundary() (q uint64, r int) {
	p := uint64(len(lk.cycles))
	return lk.pos/p + 1, int(lk.pos % p)
}

// stateFingerprint returns StateFingerprint after the last replayed
// cycle: its recorded words hashed with the threads' live zero flags.
func (lk *lockState) stateFingerprint(ch *Chip) uint64 {
	p := len(lk.cycles)
	k := (lk.k + p - 1) % p
	words := lk.words[k*lk.nWords : (k+1)*lk.nWords]
	if len(lk.cores) > 64 {
		return ch.stateHash(words)
	}
	var mask uint64
	for i := range lk.cores {
		if lk.cores[i].c.th.zeroFlag {
			mask |= 1 << i
		}
	}
	if m := &lk.fps[k]; !m.ok || m.mask != mask {
		*m = lockFP{mask: mask, fp: ch.stateHash(words), ok: true}
	}
	return lk.fps[k].fp
}

// stats returns the chip counters at the current locked boundary.
func (lk *lockState) statsAt() Stats {
	q, r := lk.boundary()
	a, s0, sp := lk.stats[r], lk.stats[0], lk.stats[len(lk.cycles)]
	return Stats{
		Branches:    a.Branches + q*(sp.Branches-s0.Branches),
		Mispredicts: a.Mispredicts + q*(sp.Mispredicts-s0.Mispredicts),
		L1Hits:      a.L1Hits + q*(sp.L1Hits-s0.L1Hits),
		L1Misses:    a.L1Misses + q*(sp.L1Misses-s0.L1Misses),
		L2Hits:      a.L2Hits + q*(sp.L2Hits-s0.L2Hits),
		L2Misses:    a.L2Misses + q*(sp.L2Misses-s0.L2Misses),
		L3Hits:      a.L3Hits + q*(sp.L3Hits-s0.L3Hits),
		L3Misses:    a.L3Misses + q*(sp.L3Misses-s0.L3Misses),
	}
}

// retiredAt returns the retired count at the current locked boundary:
// chip-wide for core < 0, else of lockState.cores[core].
func (lk *lockState) retiredAt(core int) uint64 {
	q, r := lk.boundary()
	rs := lk.retired
	if core >= 0 {
		rs = lk.cores[core].retired
	}
	return rs[r] + q*(rs[len(lk.cycles)]-rs[0])
}

// appendTimingState appends the chip's timing state relative to the
// current cycle and each thread's sequence number: everything the
// model's future timing depends on besides the uop stream itself.
// Register values and toggle state are left out (they only move
// energy), and so are the caches, whose contents a period without L1
// misses cannot change. Completion-table entries appear through the
// tags that can still be read — queue dependencies and the rename map
// — as ready, or as a relative tag and deadline. Given a reference
// snapshot ref it also reports whether the state equals ref, stopping
// at the first core that differs.
func (ch *Chip) appendTimingState(b, ref []uint64) ([]uint64, bool) {
	now := ch.cycle
	b = append(b, now%uint64(ch.cfg.CoresPerModule), uint64(ch.throttle),
		uint64(ch.waitingCores), uint64(len(ch.barriers)))
	for i := range ch.barriers {
		bs := &ch.barriers[i]
		b = append(b, uint64(bs.count))
		for _, w := range bs.waiting {
			b = append(b, b2u(w))
		}
	}
	checked := 0
	for _, m := range ch.modules {
		b = append(b, uint64(m.fpToken))
		for _, c := range m.cores {
			b = c.appendTimingState(b, now)
			if ref != nil {
				if len(b) > len(ref) || !slices.Equal(b[checked:], ref[checked:len(b)]) {
					return b, false
				}
				checked = len(b)
			}
		}
	}
	return b, ref == nil || len(b) == len(ref)
}

func (c *core) appendTimingState(b []uint64, now uint64) []uint64 {
	rel := func(until uint64) uint64 {
		if until > now {
			return until - now
		}
		return 0
	}
	t := c.th
	if t == nil {
		// A stall injected into an empty core shows only in the
		// fingerprint.
		return append(b, ^uint64(0), rel(c.stallUntil))
	}
	seq := t.seq
	b = append(b, uint64(t.pc), b2u(t.primed)|b2u(t.curOK)<<1|b2u(t.done)<<2)
	if t.primed && t.curOK {
		b = appendUop(b, &t.cur, seq)
	}
	b = append(b, uint64(len(c.intQ)), uint64(len(c.fpQ)), uint64(c.lsq))
	for _, q := range [2][]queued{c.intQ, c.fpQ} {
		for i := range q {
			u := &q[i].u
			b = appendUop(b, u, seq)
			if u.tpl.dstIdx >= 0 {
				tag := u.Seq + 1
				b = append(b, b2u(c.ringTag[tag%ringK] == tag))
			}
			for _, d := range q[i].deps.d {
				b = c.appendTag(b, d, seq, now)
			}
		}
	}
	for _, tag := range c.regWriterTag {
		b = c.appendTag(b, tag, seq, now)
	}
	b = append(b, rel(c.stallUntil), rel(c.idivBusyUntil), uint64(c.waitBarrier+1), uint64(c.ghist))
	for _, t := range c.mshr {
		b = append(b, rel(t))
	}
	h := uint64(len(c.busUsed))
	for d := uint64(0); d < h; d++ {
		s := (now + d) % h
		if bc := c.busCycle[s]; bc >= now {
			b = append(b, bc-now+1, uint64(c.busUsed[s]))
		} else {
			b = append(b, 0)
		}
	}
	for i := 0; i+8 <= len(c.btable); i += 8 {
		b = append(b, binary.LittleEndian.Uint64(c.btable[i:]))
	}
	return b
}

// appendUop appends a uop's timing inputs, its sequence number relative
// to the thread's.
func appendUop(b []uint64, u *Uop, seq uint64) []uint64 {
	return append(b, uint64(u.tpl.pc), seq-u.Seq, u.Addr, b2u(u.Taken),
		uint64(u.BarrierID), uint64(u.memLevel))
}

// appendTag appends a producer tag's readiness: 0 when it reads as
// ready from now on (architectural, completed, or evicted from the
// ring), else 1, the tag relative to seq and its deadline relative to
// now (all ones while the producer has not issued).
func (c *core) appendTag(b []uint64, tag, seq, now uint64) []uint64 {
	if tag == 0 {
		return append(b, 0)
	}
	s := tag % ringK
	r := c.readyRing[s]
	if c.ringTag[s] != tag || r <= now {
		return append(b, 0)
	}
	if r != pendingCycle {
		r -= now
	}
	return append(b, 1, seq-tag, r)
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
