package cpu

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/uarch"
)

const pendingCycle = math.MaxUint64

// CycleResult reports what one clock cycle did, for power conversion
// and for failure-path analysis.
type CycleResult struct {
	// EnergyPJ is the dynamic energy consumed this cycle (all modules).
	EnergyPJ float64
	// UnitIssues counts issued uops per execution-unit kind chip-wide.
	UnitIssues [isa.NumUnits]int
	// Decoded counts instructions leaving the front ends (incl. NOPs).
	Decoded int
}

// Chip is the whole processor: modules, shared L3, barrier registry.
type Chip struct {
	cfg uarch.ChipConfig
	pm  power.Model

	modules []*module
	l3      *Cache

	cycle    uint64
	throttle int // live FP throttle limit; 0 = off

	// Barrier registry. Barrier ids are registered at Attach (from the
	// thread's pre-decoded templates) into dense slots so the per-cycle
	// paths never touch a map: barriers[slot] holds the waiting set as a
	// per-core bool slice plus a count, waitingCores is the chip-wide
	// total (the fast-path gate), and partsScratch is the reusable
	// participant buffer for releaseBarriers.
	barriers     []barrierState
	barrierIdx   map[int64]int32
	waitingCores int
	partsScratch []*core

	res CycleResult // scratch for the current cycle

	// clockPJ is the per-cycle clock-tree energy of all modules.
	clockPJ float64

	// Schedule lock (lock.go). probing is set while a candidate period
	// is being tested, recording while a proven period is recorded, and
	// locked once it is: from then on Step replays the recorded
	// schedule. lk keeps its buffers across Reset so a pooled chip's
	// locked captures allocate nothing.
	probing, recording, locked bool
	lk                         *lockState
	fpWords                    []uint64 // scratch for Fingerprints
}

// barrierState is one registered barrier id's waiting set.
type barrierState struct {
	id      int64
	waiting []bool // indexed by global core
	count   int
}

type module struct {
	chip  *Chip
	idx   int
	cores []*core
	l2    *Cache

	// Shared-FPU state.
	fpToken   int // round-robin arbitration among sibling cores
	fpLastSrc isa.Value
	fpLastRes isa.Value
	fpIssued  bool // any FP issue this cycle (for FP idle energy)
}

// ringK is the completion-table size. It must exceed the maximum
// dynamic-instruction distance over which a producer can still be
// incomplete: queues hold <100 uops and the longest latency is
// MemLat+bus ≈ 250 cycles ≈ 1000 instructions at IPC 4, so 4096 tags
// give a comfortable margin. A tag evicted from the ring is therefore
// always complete.
const ringK = 4096

// depSet holds the producer tags (thread seq+1; 0 = architecturally
// ready) of a uop's register sources.
type depSet struct {
	d [4]uint64
}

type queued struct {
	u    Uop
	deps depSet
}

type core struct {
	mod  *module
	idx  int // within module
	gidx int // global core index
	th   *Thread
	l1   *Cache

	intQ []queued
	fpQ  []queued
	lsq  int // mem ops currently queued

	// regWriterTag maps architectural register → tag of its last
	// decoded writer (0 = no in-flight writer).
	regWriterTag [isa.TotalRegs]uint64
	// Completion table: ringTag[s] identifies which writer owns slot s;
	// readyRing[s] is the cycle its result is available (pendingCycle
	// until it issues).
	ringTag   [ringK]uint64
	readyRing [ringK]uint64

	stallUntil    uint64
	idivBusyUntil uint64

	// mshr[i] is the cycle at which outstanding miss i completes.
	mshr []uint64

	busUsed  []uint8
	busCycle []uint64

	waitBarrier int64 // -1 when not waiting

	// Branch predictor state (gshare) and statistics.
	ghist       uint32
	btable      []uint8
	branches    uint64
	mispredicts uint64

	// Per-unit toggle state for the integer cluster and LSU.
	lastSrc [isa.NumUnits]isa.Value
	lastRes [isa.NumUnits]isa.Value

	retired   uint64
	activeNow bool

	lockIdx int32 // this core's lockState.cores index once a lock records
}

// NewChip builds a chip from a validated config and power model.
func NewChip(cfg uarch.ChipConfig, pm power.Model) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := pm.Validate(); err != nil {
		return nil, err
	}
	l3, err := NewCache(cfg.L3Bytes, cfg.L3Ways, cfg.LineBytes)
	if err != nil {
		return nil, err
	}
	ch := &Chip{
		cfg:          cfg,
		pm:           pm,
		l3:           l3,
		throttle:     cfg.FPThrottleLimit,
		barrierIdx:   map[int64]int32{},
		partsScratch: make([]*core, 0, cfg.Threads()),
	}
	ch.clockPJ = float64(cfg.Modules) * pm.ClockPJPerModuleCycle
	horizon := cfg.MemLat + 64
	g := 0
	for mi := 0; mi < cfg.Modules; mi++ {
		l2, err := NewCache(cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes)
		if err != nil {
			return nil, err
		}
		m := &module{chip: ch, idx: mi, l2: l2}
		for ci := 0; ci < cfg.CoresPerModule; ci++ {
			l1, err := NewCache(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes)
			if err != nil {
				return nil, err
			}
			c := &core{
				mod:         m,
				idx:         ci,
				gidx:        g,
				l1:          l1,
				intQ:        make([]queued, 0, cfg.IntQueue),
				fpQ:         make([]queued, 0, cfg.FPQueue),
				mshr:        make([]uint64, cfg.MSHRs),
				busUsed:     make([]uint8, horizon),
				busCycle:    make([]uint64, horizon),
				waitBarrier: -1,
			}
			if cfg.Predictor == "gshare" {
				c.btable = make([]uint8, 4096)
				for i := range c.btable {
					c.btable[i] = 1 // weakly not-taken
				}
			}
			m.cores = append(m.cores, c)
			g++
		}
		ch.modules = append(ch.modules, m)
	}
	return ch, nil
}

// Reset returns the chip to its just-constructed state: threads
// detached, caches cold, predictor re-initialised, queues and scratch
// state cleared. A reset chip behaves bit-identically to a fresh
// NewChip with the same config and power model — that property is what
// lets the compiled testbed pool chip instances across runs instead of
// reallocating the multi-megabyte cache and completion-table arrays
// every evaluation.
func (ch *Chip) Reset() {
	ch.cycle = 0
	ch.throttle = ch.cfg.FPThrottleLimit
	ch.probing, ch.recording, ch.locked = false, false, false
	ch.res = CycleResult{}
	ch.barriers = ch.barriers[:0]
	for id := range ch.barrierIdx {
		delete(ch.barrierIdx, id)
	}
	ch.waitingCores = 0
	ch.partsScratch = ch.partsScratch[:0]
	ch.l3.Reset()
	for _, m := range ch.modules {
		m.l2.Reset()
		m.fpToken = 0
		m.fpLastSrc = isa.Value{}
		m.fpLastRes = isa.Value{}
		m.fpIssued = false
		for _, c := range m.cores {
			c.th = nil
			c.l1.Reset()
			c.intQ = c.intQ[:0]
			c.fpQ = c.fpQ[:0]
			c.lsq = 0
			c.regWriterTag = [isa.TotalRegs]uint64{}
			c.ringTag = [ringK]uint64{}
			c.readyRing = [ringK]uint64{}
			c.stallUntil = 0
			c.idivBusyUntil = 0
			for i := range c.mshr {
				c.mshr[i] = 0
			}
			for i := range c.busUsed {
				c.busUsed[i] = 0
			}
			for i := range c.busCycle {
				c.busCycle[i] = 0
			}
			c.waitBarrier = -1
			c.ghist = 0
			for i := range c.btable {
				c.btable[i] = 1
			}
			c.branches, c.mispredicts = 0, 0
			c.lastSrc = [isa.NumUnits]isa.Value{}
			c.lastRes = [isa.NumUnits]isa.Value{}
			c.retired = 0
			c.activeNow = false
		}
	}
}

// Config returns the chip's configuration.
func (ch *Chip) Config() uarch.ChipConfig { return ch.cfg }

// Cycle returns the current cycle number.
func (ch *Chip) Cycle() uint64 { return ch.cycle }

// SetFPThrottle sets the live FP issue cap (0 disables throttling).
func (ch *Chip) SetFPThrottle(limit int) { ch.throttle = limit }

// Attach places a thread on (module, core). The slot must be empty.
func (ch *Chip) Attach(moduleIdx, coreIdx int, th *Thread) error {
	if moduleIdx < 0 || moduleIdx >= len(ch.modules) {
		return fmt.Errorf("cpu: module %d out of range", moduleIdx)
	}
	m := ch.modules[moduleIdx]
	if coreIdx < 0 || coreIdx >= len(m.cores) {
		return fmt.Errorf("cpu: core %d out of range in module %d", coreIdx, moduleIdx)
	}
	c := m.cores[coreIdx]
	if c.th != nil {
		return fmt.Errorf("cpu: module %d core %d already occupied", moduleIdx, coreIdx)
	}
	th.SetGlobalBase(uint64(c.gidx+1) << 32)
	c.th = th
	// Register the program's barrier ids into dense slots and annotate
	// the thread's templates with them, so barrier decode and release
	// never consult a map.
	for i := range th.tmpl {
		tpl := &th.tmpl[i]
		if tpl.class == isa.ClassBarrier {
			tpl.barrierSlot = ch.barrierSlot(tpl.barrierID)
		}
	}
	return nil
}

// barrierSlot returns (registering if new) the dense slot of a barrier
// id.
func (ch *Chip) barrierSlot(id int64) int32 {
	if s, ok := ch.barrierIdx[id]; ok {
		return s
	}
	s := int32(len(ch.barriers))
	ch.barriers = append(ch.barriers, barrierState{
		id:      id,
		waiting: make([]bool, ch.cfg.Threads()),
	})
	ch.barrierIdx[id] = s
	return s
}

// InjectStall freezes a core's decode for the given number of cycles,
// starting now. This implements dither padding ("one cycle worth of NOP
// padding") and OS-tick interference.
func (ch *Chip) InjectStall(globalCore int, cycles uint64) error {
	c, err := ch.coreByGlobal(globalCore)
	if err != nil {
		return err
	}
	if ch.locked {
		return fmt.Errorf("cpu: stall injected into a schedule-locked chip")
	}
	until := ch.cycle + cycles
	if until > c.stallUntil {
		c.stallUntil = until
	}
	return nil
}

func (ch *Chip) coreByGlobal(g int) (*core, error) {
	for _, m := range ch.modules {
		for _, c := range m.cores {
			if c.gidx == g {
				return c, nil
			}
		}
	}
	return nil, fmt.Errorf("cpu: no core %d", g)
}

// StateFingerprint hashes the chip's cycle-relative control state:
// per-thread program counters, lookahead and zero flag, queue
// occupancies, stall/divider/MSHR deadlines relative to the current
// cycle, barrier waits, predictor history and FP arbitration tokens. In
// the steady state of a loop this value recurs with the loop, which is
// what the testbed's trace-periodicity detector keys on. It is
// deliberately approximate — register file contents and
// completion-table details are excluded for speed — so equal
// fingerprints are a candidate period, not a proof; the detector
// verifies candidates against the recorded trace bit-for-bit before
// trusting them.
func (ch *Chip) StateFingerprint() uint64 {
	state, _ := ch.Fingerprints()
	return state
}

// Fingerprints returns StateFingerprint and the timing fingerprint: the
// same hash with every thread's zero flag left out, so that it does not
// see the data a loop computes. The timing fingerprint proposes
// schedule-lock candidates (lock.go); it is 0 once the chip is locked.
func (ch *Chip) Fingerprints() (state, timing uint64) {
	if ch.locked {
		return ch.lk.stateFingerprint(ch), 0
	}
	ch.fpWords = ch.appendFPWords(ch.fpWords[:0])
	return ch.stateHash(ch.fpWords), fnvWords(ch.fpWords)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// zeroFlagBit is the zero flag's bit in a thread's fingerprint word.
	zeroFlagBit = 1 << 3
	// fpCoreWords is the number of fingerprint words per core.
	fpCoreWords = 7
)

// appendFPWords appends the fingerprint's control words: per module the
// FP token, then fpCoreWords per core. Thread words carry no zero flag;
// stateHash adds each thread's live flag.
func (ch *Chip) appendFPWords(b []uint64) []uint64 {
	now := ch.cycle
	rel := func(until uint64) uint64 {
		if until > now {
			return until - now
		}
		return 0
	}
	for _, m := range ch.modules {
		b = append(b, uint64(m.fpToken))
		for _, c := range m.cores {
			th := ^uint64(0)
			if c.th != nil {
				th = c.th.stateFP() &^ zeroFlagBit
			}
			var mm uint64
			for _, t := range c.mshr {
				mm = mm*31 + rel(t)
			}
			b = append(b, th,
				uint64(len(c.intQ))<<32|uint64(len(c.fpQ))<<16|uint64(uint16(c.lsq)),
				rel(c.stallUntil), rel(c.idivBusyUntil), uint64(c.waitBarrier+1),
				uint64(c.ghist), mm)
		}
	}
	return b
}

// stateHash folds fingerprint words into StateFingerprint, setting each
// attached thread's live zero flag in its word.
func (ch *Chip) stateHash(words []uint64) uint64 {
	h := uint64(fnvOffset64)
	i := 0
	for _, m := range ch.modules {
		h = (h ^ words[i]) * fnvPrime64
		i++
		for _, c := range m.cores {
			w := words[i]
			if c.th != nil && c.th.zeroFlag {
				w |= zeroFlagBit
			}
			h = (h ^ w) * fnvPrime64
			for _, v := range words[i+1 : i+fpCoreWords] {
				h = (h ^ v) * fnvPrime64
			}
			i += fpCoreWords
		}
	}
	return h
}

// fnvWords folds words into an FNV-1a style hash.
func fnvWords(words []uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range words {
		h = (h ^ v) * fnvPrime64
	}
	return h
}

// Stats summarises pipeline and memory behaviour over the run so far.
type Stats struct {
	Branches, Mispredicts uint64
	L1Hits, L1Misses      uint64
	L2Hits, L2Misses      uint64
	L3Hits, L3Misses      uint64
}

// Stats aggregates counters across cores and cache levels.
func (ch *Chip) Stats() Stats {
	if ch.locked {
		return ch.lk.statsAt()
	}
	var s Stats
	for _, m := range ch.modules {
		h, mi := m.l2.Stats()
		s.L2Hits += h
		s.L2Misses += mi
		for _, c := range m.cores {
			s.Branches += c.branches
			s.Mispredicts += c.mispredicts
			h, mi := c.l1.Stats()
			s.L1Hits += h
			s.L1Misses += mi
		}
	}
	s.L3Hits, s.L3Misses = ch.l3.Stats()
	return s
}

// Retired returns total dynamic instructions consumed chip-wide.
func (ch *Chip) Retired() uint64 {
	if ch.locked {
		return ch.lk.retiredAt(-1)
	}
	var n uint64
	for _, m := range ch.modules {
		for _, c := range m.cores {
			n += c.retired
		}
	}
	return n
}

// CoreRetired returns the dynamic instruction count of one core.
func (ch *Chip) CoreRetired(globalCore int) uint64 {
	c, err := ch.coreByGlobal(globalCore)
	if err != nil {
		return 0
	}
	if ch.locked && c.th != nil {
		return ch.lk.retiredAt(int(c.lockIdx))
	}
	return c.retired
}

// Done reports whether every attached thread has finished and all
// queues have drained.
func (ch *Chip) Done() bool {
	if ch.locked {
		// The lock's counter check proves no thread ends inside the
		// window.
		return false
	}
	for _, m := range ch.modules {
		for _, c := range m.cores {
			if c.th == nil {
				continue
			}
			if !c.th.Done() || len(c.intQ) > 0 || len(c.fpQ) > 0 || c.waitBarrier >= 0 {
				return false
			}
		}
	}
	return true
}

// Step advances the chip by one clock cycle and returns the cycle's
// activity and energy.
func (ch *Chip) Step() CycleResult {
	if ch.locked {
		return ch.stepLocked()
	}
	ch.res = CycleResult{}
	now := ch.cycle

	for _, m := range ch.modules {
		m.fpIssued = false
		for _, c := range m.cores {
			c.activeNow = false
		}
	}

	// Front ends.
	for _, m := range ch.modules {
		m.decode(now)
	}
	if ch.recording {
		// Decode adds only constants, from zero: one recorded prefix.
		ch.lk.prefix = ch.res.EnergyPJ
	}
	// Back ends: integer clusters then the FP cluster(s).
	for _, m := range ch.modules {
		for _, c := range m.cores {
			c.issueInt(now)
		}
		m.issueFP(now)
	}
	// Barrier release check.
	ch.releaseBarriers(now)

	// Machine-level energy.
	ch.addMachinePJ(ch.clockPJ)
	for _, m := range ch.modules {
		if !m.fpIssued {
			ch.addMachinePJ(ch.pm.FPIdlePJPerCycle)
		}
		for _, c := range m.cores {
			if c.activeNow {
				ch.addMachinePJ(ch.pm.CorePJPerActiveCycle)
			}
		}
	}

	ch.cycle++
	if ch.recording {
		ch.recordCycle()
	}
	return ch.res
}

// ---- front end ----

func (m *module) decode(now uint64) {
	cfg := &m.chip.cfg
	if cfg.SharedFrontEnd && len(m.cores) > 1 {
		// Sibling threads alternate decode cycles; if the scheduled
		// thread cannot use the slot at all, the partner takes it.
		n := len(m.cores)
		first := int(now) % n
		for k := 0; k < n; k++ {
			ci := wrap(first+k, n)
			if m.cores[ci].decodeReady(now) {
				m.cores[ci].decode(now, cfg.DecodeWidth)
				return
			}
		}
		return
	}
	for _, c := range m.cores {
		if c.decodeReady(now) {
			c.decode(now, cfg.DecodeWidth)
		}
	}
}

// wrap reduces i modulo n for 0 ≤ i < 2n without the per-cycle integer
// division of i % n.
func wrap(i, n int) int {
	if i >= n {
		return i - n
	}
	return i
}

// decodeReady reports whether the core can consume any decode slot.
func (c *core) decodeReady(now uint64) bool {
	if c.th == nil || c.waitBarrier >= 0 || now < c.stallUntil {
		return false
	}
	_, ok := c.th.Peek()
	return ok
}

func (c *core) decode(now uint64, width int) {
	ch := c.mod.chip
	cfg, pm := &ch.cfg, &ch.pm
	decoded := 0
	intDisp, fpDisp := cfg.IntDispatch, cfg.FPDispatch
	for decoded < width {
		u, ok := c.th.Peek()
		if !ok {
			break
		}
		tpl := u.tpl
		switch {
		case tpl.class == isa.ClassNOP:
			// Fetch/decode only: no queue entry, no unit, no result.
			ch.res.EnergyPJ += pm.FrontEndPJPerOp + tpl.energyPJ
			c.th.Consume()
			c.retired++
			decoded++
		case tpl.class == isa.ClassBarrier:
			c.waitBarrier = u.BarrierID
			b := &ch.barriers[tpl.barrierSlot]
			if !b.waiting[c.gidx] {
				b.waiting[c.gidx] = true
				b.count++
				ch.waitingCores++
			}
			c.th.Consume()
			c.retired++
			decoded++
			// Stop decoding past a barrier.
			c.markDecoded(decoded)
			return
		case tpl.class == isa.ClassBranch:
			// Branches resolve at decode in this model; a wrong
			// prediction costs a front-end bubble.
			ch.res.EnergyPJ += pm.FrontEndPJPerOp + tpl.energyPJ
			ch.res.UnitIssues[isa.UnitBranch]++
			taken := u.Taken
			predictTaken := c.predictBranch(u)
			c.recordBranch(u, taken, predictTaken)
			c.th.Consume()
			c.retired++
			decoded++
			if taken != predictTaken {
				c.stallUntil = now + uint64(cfg.BranchPenalty)
				c.markDecoded(decoded)
				return
			}
			if taken {
				// Fetch redirect ends the decode group.
				c.markDecoded(decoded)
				return
			}
		case tpl.isFP:
			if fpDisp == 0 || len(c.fpQ) >= cfg.FPQueue {
				c.markDecoded(decoded)
				return
			}
			fpDisp--
			ch.res.EnergyPJ += pm.FrontEndPJPerOp
			c.fpQ = c.enqueue(c.fpQ, u)
			c.th.Consume()
			decoded++
		default:
			if intDisp == 0 {
				c.markDecoded(decoded)
				return
			}
			if tpl.isMem && c.lsq >= cfg.LSQ {
				c.markDecoded(decoded)
				return
			}
			if len(c.intQ) >= cfg.IntQueue {
				c.markDecoded(decoded)
				return
			}
			intDisp--
			ch.res.EnergyPJ += pm.FrontEndPJPerOp
			if tpl.isMem {
				c.lsq++
			}
			c.intQ = c.enqueue(c.intQ, u)
			c.th.Consume()
			decoded++
		}
	}
	c.markDecoded(decoded)
}

func (c *core) markDecoded(n int) {
	if n > 0 {
		c.activeNow = true
		c.mod.chip.res.Decoded += n
	}
}

// predictBranch returns the predicted direction for a branch uop:
// static backward-taken/forward-not-taken, or gshare when configured.
func (c *core) predictBranch(u *Uop) bool {
	if u.tpl.branchKind == brJmp {
		return true
	}
	if c.btable == nil {
		return u.BackBranch
	}
	return c.btable[c.btableIndex(u)] >= 2
}

func (c *core) btableIndex(u *Uop) uint32 {
	// btHash is the static branch site's hash, precomputed at template
	// compile.
	return (u.tpl.btHash ^ c.ghist) & uint32(len(c.btable)-1)
}

// recordBranch updates predictor state and statistics.
func (c *core) recordBranch(u *Uop, taken, predicted bool) {
	c.branches++
	if taken != predicted {
		c.mispredicts++
	}
	if c.btable != nil && u.tpl.branchKind != brJmp {
		i := c.btableIndex(u)
		if taken {
			if c.btable[i] < 3 {
				c.btable[i]++
			}
		} else if c.btable[i] > 0 {
			c.btable[i]--
		}
		c.ghist = (c.ghist << 1) & uint32(len(c.btable)-1)
		if taken {
			c.ghist |= 1
		}
	}
}

// rename captures the uop's register dependencies as producer tags and
// registers the uop as the new writer of its destination. It must be
// called in program order (at decode).
func (c *core) rename(u *Uop) depSet {
	tpl := u.tpl
	var deps depSet
	for i := uint8(0); i < tpl.nsrc; i++ {
		deps.d[i] = c.regWriterTag[tpl.srcRegs[i]]
	}
	if tpl.dstIdx >= 0 {
		tag := u.Seq + 1
		c.regWriterTag[tpl.dstIdx] = tag
		s := tag % ringK
		c.ringTag[s] = tag
		c.readyRing[s] = pendingCycle
	}
	return deps
}

// enqueue appends u and its renamed dependencies to q, filling the new
// entry in place. Decode checks occupancy first, and NewChip sizes each
// queue's capacity from ChipConfig, so the entry always fits.
func (c *core) enqueue(q []queued, u *Uop) []queued {
	n := len(q)
	q = q[:n+1]
	q[n].u = *u
	q[n].deps = c.rename(u)
	return q
}

// ---- integer cluster ----

func (c *core) depsReady(deps *depSet, now uint64) bool {
	for _, tag := range deps.d {
		if tag == 0 {
			continue
		}
		s := tag % ringK
		if c.ringTag[s] != tag {
			// Evicted from the ring: old enough to be complete.
			continue
		}
		if c.readyRing[s] > now {
			return false
		}
	}
	return true
}

func (c *core) issueInt(now uint64) {
	cfg := &c.mod.chip.cfg
	alu, agu, lsu := cfg.NumALU, cfg.NumAGU, cfg.LSUPorts
	imul := 1
	for i := 0; i < len(c.intQ); {
		u := &c.intQ[i].u
		if !c.depsReady(&c.intQ[i].deps, now) {
			i++
			continue
		}
		unit := u.tpl.unit
		switch unit {
		case isa.UnitALU:
			if alu == 0 {
				i++
				continue
			}
			alu--
		case isa.UnitAGU:
			if agu == 0 {
				i++
				continue
			}
			agu--
		case isa.UnitIMul:
			if imul == 0 {
				i++
				continue
			}
			imul--
		case isa.UnitIDiv:
			if now < c.idivBusyUntil {
				i++
				continue
			}
			c.idivBusyUntil = now + u.tpl.recipTP
		case isa.UnitLSU:
			if lsu == 0 {
				i++
				continue
			}
			// A miss needs a free MSHR. The hierarchy is probed (and
			// filled) once; the level is remembered so a blocked access
			// keeps charging its original miss level on retry.
			if u.memLevel == 0 {
				u.memLevel = c.mod.chip.memAccess(c, u.Addr)
			}
			if u.memLevel > levelL1 && !c.takeMSHR(now, u.memLevel) {
				i++
				continue
			}
			lsu--
		default:
			i++
			continue
		}
		c.execute(u, now, unit)
		c.intQ = append(c.intQ[:i], c.intQ[i+1:]...)
	}
}

// takeMSHR claims a miss-status register until the fill completes;
// false when all are busy (the access must retry next cycle).
func (c *core) takeMSHR(now uint64, level memLevel) bool {
	lat, _ := level.latencyEnergy(&c.mod.chip.cfg)
	for i := range c.mshr {
		if c.mshr[i] <= now {
			c.mshr[i] = now + lat
			return true
		}
	}
	return false
}

// execute finishes an issued uop: latency, result bus, register
// readiness, energy and activity accounting.
func (c *core) execute(u *Uop, now uint64, unit isa.Unit) {
	ch := c.mod.chip
	tpl := u.tpl
	lat := tpl.latency
	var extraPJ float64
	if tpl.isMem {
		c.lsq--
		lat, extraPJ = u.memLevel.latencyEnergy(&ch.cfg)
	}
	cc := now + lat
	if tpl.dstIdx >= 0 {
		cc = c.busSlot(cc)
		c.complete(u.Seq+1, cc)
	}
	if ch.recording {
		ch.lk.noteIssue(c, u, &c.lastSrc[unit], &c.lastRes[unit])
	}
	eff := toggleEnergy(tpl, &c.lastSrc[unit], &c.lastRes[unit], u.SrcA, u.Result)
	ch.res.EnergyPJ += eff + ch.pm.SchedPJPerIssue + extraPJ
	ch.res.UnitIssues[unit]++
	c.retired++
	c.activeNow = true
}

// toggleEnergy returns an issued uop's toggle-scaled execution energy
// and moves the unit's last-operand state to the uop's values. The
// expression keeps the interpreter's exact shape — only
// 1-ToggleFraction is folded at template compile, which is the same
// subtraction on the same operands — and the locked replay calls this
// same function, so both paths run one sequence of float operations.
func toggleEnergy(tpl *uopTemplate, lastSrc, lastRes *isa.Value, src, res isa.Value) float64 {
	frac := 0.7*isa.ToggleFractionOf(*lastSrc, src) +
		0.3*isa.ToggleFractionOf(*lastRes, res)
	*lastSrc, *lastRes = src, res
	return tpl.energyPJ * (tpl.oneMinusTF + tpl.toggleTF*frac)
}

// addMachinePJ adds one machine-level energy term to the cycle, noting
// it while a proven lock period is recorded.
func (ch *Chip) addMachinePJ(pj float64) {
	ch.res.EnergyPJ += pj
	if ch.recording {
		ch.lk.consts = append(ch.lk.consts, pj)
	}
}

// busSlot books a register-file write port at or after cycle cc.
func (c *core) busSlot(cc uint64) uint64 {
	h := uint64(len(c.busUsed))
	max := c.mod.chip.cfg.ResultBuses
	for {
		s := cc % h
		if c.busCycle[s] != cc {
			c.busCycle[s] = cc
			c.busUsed[s] = 0
		}
		if int(c.busUsed[s]) < max {
			c.busUsed[s]++
			return cc
		}
		cc++
	}
}

// ---- floating-point cluster ----

func (m *module) issueFP(now uint64) {
	cfg := &m.chip.cfg
	if cfg.SharedFPU {
		budget := cfg.NumFPPipes
		if t := m.chip.throttle; t > 0 && t < budget {
			budget = t
		}
		// Token-based round-robin among sibling threads: the token
		// holder gets first pick each cycle.
		n := len(m.cores)
		for issued := true; budget > 0 && issued; {
			issued = false
			for k := 0; k < n && budget > 0; k++ {
				c := m.cores[wrap(m.fpToken+k, n)]
				if c.issueOneFP(now) {
					budget--
					issued = true
				}
			}
		}
		m.fpToken = wrap(m.fpToken+1, n)
		return
	}
	// Private FPUs: per-core budget, per-core throttle.
	for _, c := range m.cores {
		budget := cfg.NumFPPipes
		if t := m.chip.throttle; t > 0 && t < budget {
			budget = t
		}
		for budget > 0 && c.issueOneFP(now) {
			budget--
		}
	}
}

// issueOneFP issues the oldest ready FP uop on the core, if any.
func (c *core) issueOneFP(now uint64) bool {
	for i := 0; i < len(c.fpQ); i++ {
		u := &c.fpQ[i].u
		if !c.depsReady(&c.fpQ[i].deps, now) {
			continue
		}
		c.executeFP(u, now)
		c.fpQ = append(c.fpQ[:i], c.fpQ[i+1:]...)
		return true
	}
	return false
}

// complete records a writer's result-available cycle, unless its ring
// slot was reclaimed by a newer writer.
func (c *core) complete(tag, cc uint64) {
	s := tag % ringK
	if c.ringTag[s] == tag {
		c.readyRing[s] = cc
	}
}

func (c *core) executeFP(u *Uop, now uint64) {
	ch := c.mod.chip
	m := c.mod
	tpl := u.tpl
	cc := now + tpl.latency
	if tpl.dstIdx >= 0 {
		cc = c.busSlot(cc)
		c.complete(u.Seq+1, cc)
	}
	if ch.recording {
		ch.lk.noteIssue(c, u, &m.fpLastSrc, &m.fpLastRes)
	}
	eff := toggleEnergy(tpl, &m.fpLastSrc, &m.fpLastRes, u.SrcA, u.Result)
	ch.res.EnergyPJ += eff + ch.pm.SchedPJPerIssue
	ch.res.UnitIssues[isa.UnitFPU]++
	m.fpIssued = true
	c.retired++
	c.activeNow = true
}

// ---- memory hierarchy ----

type memLevel int

const (
	levelL1 memLevel = iota + 1
	levelL2
	levelL3
	levelMem
)

func (l memLevel) latencyEnergy(cfg *uarch.ChipConfig) (uint64, float64) {
	switch l {
	case levelL1:
		return uint64(cfg.L1Lat), 0
	case levelL2:
		return uint64(cfg.L2Lat), 45
	case levelL3:
		return uint64(cfg.L3Lat), 110
	default:
		return uint64(cfg.MemLat), 260
	}
}

func (ch *Chip) memAccess(c *core, addr uint64) memLevel {
	if c.l1.Access(addr) {
		return levelL1
	}
	if c.mod.l2.Access(addr) {
		return levelL2
	}
	if ch.l3.Access(addr) {
		return levelL3
	}
	return levelMem
}

// ---- barriers ----

// releaseBarriers frees every barrier on which all live participants
// wait. The release signal reaches cores at staggered times, modelling
// delivery from different levels of the memory hierarchy — the natural
// misalignment the paper observed dampening the barrier stressmark
// (§5.A.1).
func (ch *Chip) releaseBarriers(now uint64) {
	if ch.waitingCores == 0 {
		return
	}
	// Participants: every attached core whose thread is not done or is
	// currently waiting. The scratch buffer is chip-owned so the hot
	// loop never allocates.
	participants := ch.partsScratch[:0]
	for _, m := range ch.modules {
		for _, c := range m.cores {
			if c.th != nil && (c.waitBarrier >= 0 || !c.th.Done() || len(c.intQ) > 0 || len(c.fpQ) > 0) {
				participants = append(participants, c)
			}
		}
	}
	ch.partsScratch = participants[:0]
	for bi := range ch.barriers {
		b := &ch.barriers[bi]
		if b.count == 0 {
			continue
		}
		all := len(participants) > 0
		for _, c := range participants {
			if !b.waiting[c.gidx] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		rank := 0
		for _, c := range participants {
			// First releasee sees L1-ish latency, later ones progressively
			// farther levels.
			skew := uint64(ch.cfg.L1Lat + rank*(ch.cfg.L2Lat-ch.cfg.L1Lat)/2)
			c.stallUntil = now + skew
			c.waitBarrier = -1
			rank++
		}
		ch.waitingCores -= b.count
		b.count = 0
		for i := range b.waiting {
			b.waiting[i] = false
		}
	}
}
