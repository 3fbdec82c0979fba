// Package dist shards AUDIT's generation-batched fitness evaluation
// across worker processes while keeping the search bit-identical to a
// single-node run. A Coordinator owns the GA loop's batch calls: it
// splits each generation's RunConfigs into lease-based work units,
// hands them to registered workers over HTTP/JSON, and merges results
// slot-aligned and at-most-once, so the arrays the GA sees do not
// depend on worker count, arrival order, retransmission or failure
// schedule. Workers are cattle: a worker that stalls, crashes or lies
// about liveness loses its lease to the TTL and the unit is reissued;
// a worker that keeps failing is suspended with exponential backoff
// and eventually evicted; when no live workers remain the coordinator
// degrades to evaluating locally, so the search always finishes.
//
// Determinism argument, on which the whole design rests: a measurement
// is a pure function of its RunConfig on any clean platform with equal
// PlatformDigest (the simulator is deterministic and runs build fresh
// state), so WHO evaluates a slot and WHEN cannot change WHAT it
// returns; the merge is keyed by slot, first result wins, and the GA's
// RNG never leaves the coordinator. Byte-exactness across the wire
// holds because encoding/json prints float64 with the shortest
// round-tripping representation.
package dist

import (
	"encoding/base64"
	"errors"
	"fmt"

	"repro/internal/asm"
	"repro/internal/faults"
	"repro/internal/testbed"
)

// RemoteError is a measurement error that happened on a worker and was
// carried back over the wire. It preserves the transient/permanent
// classification so the coordinator's retry policy and the GA's
// resilience machinery treat remote failures exactly like local ones.
type RemoteError struct {
	Msg         string
	IsTransient bool
}

func (e *RemoteError) Error() string { return e.Msg }

// Transient implements the structural contract ga's retry policy
// detects via errors.As.
func (e *RemoteError) Transient() bool { return e.IsTransient }

// Unwrap exposes the transient sentinel for errors.Is when the remote
// failure was transient.
func (e *RemoteError) Unwrap() error {
	if e.IsTransient {
		return faults.ErrTransient
	}
	return nil
}

// transient reports whether err's chain carries a Transient() == true
// marker — the same classification ga and faults use.
func transient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// Wire messages. All endpoints are POST with JSON bodies and always
// reply 200 with a JSON body; protocol conditions travel as fields, so
// a fault-injected transport only ever sees success or transport error.

type registerRequest struct {
	WorkerID string `json:"worker_id"`
	// Platform is the worker's testbed.PlatformDigest; the coordinator
	// rejects a worker measuring on different hardware, since its
	// results would silently diverge from local ones.
	Platform string `json:"platform"`
}

type registerReply struct {
	OK bool `json:"ok"`
	// Error is set when registration was refused (platform mismatch) —
	// a permanent condition; the worker should exit, not retry.
	Error string `json:"error,omitempty"`
}

type leaseRequest struct {
	WorkerID string `json:"worker_id"`
}

type leaseReply struct {
	// Unit is the leased work, nil when there is none right now.
	Unit *WireUnit `json:"unit,omitempty"`
	// LeaseMs is the lease TTL; the worker must heartbeat well inside
	// it or the unit is revoked and reissued.
	LeaseMs int64 `json:"lease_ms,omitempty"`
	// RetryMs is how long to wait before leasing again when Unit is
	// nil: 0 after the coordinator held the request for a full hold,
	// the hold length when the worker is suspended.
	RetryMs int64 `json:"retry_ms,omitempty"`
	// Unregistered tells the worker the coordinator does not know it
	// (e.g. the coordinator restarted); the worker re-registers.
	Unregistered bool `json:"unregistered,omitempty"`
	// Evicted tells the worker its circuit breaker tripped permanently;
	// a well-behaved worker process exits.
	Evicted bool `json:"evicted,omitempty"`
}

type heartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	Unit     uint64 `json:"unit"`
}

type heartbeatReply struct {
	// OK false means the lease is lost (expired, reassigned, or the
	// unit is already done): the worker must abandon the unit.
	OK bool `json:"ok"`
}

type resultRequest struct {
	WorkerID string `json:"worker_id"`
	Unit     uint64 `json:"unit"`
	// Error reports a whole-unit failure (the worker could not decode
	// or evaluate the unit at all).
	Error string `json:"error,omitempty"`
	// Transient classifies Error for the coordinator's retry policy.
	Transient bool `json:"transient,omitempty"`
	// Slots are the per-slot outcomes, aligned with the unit's slots.
	Slots []WireResult `json:"slots,omitempty"`
}

type resultReply struct {
	OK bool `json:"ok"`
}

// WireUnit is one lease-able work unit: a few slots of a generation's
// batch, self-contained (programs travel with it).
type WireUnit struct {
	ID uint64 `json:"id"`
	// Batch numbers the MeasureBatchContext call that produced the
	// unit (diagnostic only; slot identity lives coordinator-side).
	Batch uint64 `json:"batch"`
	// Programs is the unit's deduplicated program table, base64 over
	// asm.Encode. Threads reference it by index, so a population whose
	// candidates share programs ships each program once.
	Programs []string `json:"programs"`
	// Slots are the run configurations to measure.
	Slots []WireRunConfig `json:"slots"`
	// Lanes is the replay lane width the coordinator was asked for,
	// forwarded so worker batches take the same pipeline shape.
	Lanes int `json:"lanes"`
}

// WireThread mirrors testbed.ThreadSpec with the program indirected
// through the unit's table.
type WireThread struct {
	Prog      int    `json:"prog"`
	Module    int    `json:"module"`
	Core      int    `json:"core"`
	MaxInstrs uint64 `json:"max_instrs,omitempty"`
	StartSkew uint64 `json:"start_skew,omitempty"`
}

// WireRunConfig mirrors the distributable subset of testbed.RunConfig.
// OS interference and histogram capture are deliberately absent: a
// scheduler is live state and a histogram is an output parameter, so
// slots carrying either are evaluated on the coordinator (Distributable
// reports which).
type WireRunConfig struct {
	Threads          []WireThread         `json:"threads"`
	MaxCycles        uint64               `json:"max_cycles,omitempty"`
	WarmupCycles     uint64               `json:"warmup_cycles,omitempty"`
	SupplyVolts      float64              `json:"supply_volts,omitempty"`
	FPThrottle       int                  `json:"fp_throttle,omitempty"`
	Dither           []testbed.DitherSpec `json:"dither,omitempty"`
	RecordWaveform   bool                 `json:"record_waveform,omitempty"`
	ScopeSampleHz    float64              `json:"scope_sample_hz,omitempty"`
	TriggerThreshold float64              `json:"trigger_threshold,omitempty"`
	ExactCycleLoop   bool                 `json:"exact_cycle_loop,omitempty"`
}

// WireResult is one slot's outcome. Exactly one of M / Err is set.
// testbed.Measurement marshals directly: every field is a finite
// float64, integer, bool or slice thereof, and encoding/json round-
// trips all of them bit-exactly.
type WireResult struct {
	M         *testbed.Measurement `json:"m,omitempty"`
	Err       string               `json:"err,omitempty"`
	Transient bool                 `json:"transient,omitempty"`
}

// Distributable reports whether rc can be shipped to a worker. Slots
// with host-OS interference or histogram capture hold live local state
// and must be measured on the coordinator.
func Distributable(rc testbed.RunConfig) bool {
	return rc.OS == nil && rc.Histogram == nil
}

// encodeUnit builds the wire form of one unit from coordinator-side
// RunConfigs, deduplicating programs by pointer (a GA generation's
// threads all share per-candidate programs).
func encodeUnit(id, batch uint64, rcs []testbed.RunConfig, lanes int) (*WireUnit, error) {
	u := &WireUnit{ID: id, Batch: batch, Lanes: lanes}
	progIdx := make(map[*asm.Program]int)
	for _, rc := range rcs {
		if !Distributable(rc) {
			return nil, fmt.Errorf("dist: run config is not distributable")
		}
		wrc := WireRunConfig{
			MaxCycles:        rc.MaxCycles,
			WarmupCycles:     rc.WarmupCycles,
			SupplyVolts:      rc.SupplyVolts,
			FPThrottle:       rc.FPThrottle,
			Dither:           rc.Dither,
			RecordWaveform:   rc.RecordWaveform,
			ScopeSampleHz:    rc.ScopeSampleHz,
			TriggerThreshold: rc.TriggerThreshold,
			ExactCycleLoop:   rc.ExactCycleLoop,
		}
		for _, ts := range rc.Threads {
			idx, ok := progIdx[ts.Program]
			if !ok {
				blob, err := asm.Encode(ts.Program)
				if err != nil {
					return nil, fmt.Errorf("dist: encoding program: %w", err)
				}
				idx = len(u.Programs)
				u.Programs = append(u.Programs, base64.StdEncoding.EncodeToString(blob))
				progIdx[ts.Program] = idx
			}
			wrc.Threads = append(wrc.Threads, WireThread{
				Prog:      idx,
				Module:    ts.Module,
				Core:      ts.Core,
				MaxInstrs: ts.MaxInstrs,
				StartSkew: ts.StartSkew,
			})
		}
		u.Slots = append(u.Slots, wrc)
	}
	return u, nil
}

// decodeUnit rebuilds runnable RunConfigs from the wire form.
func decodeUnit(u *WireUnit) ([]testbed.RunConfig, error) {
	progs := make([]*asm.Program, len(u.Programs))
	for i, enc := range u.Programs {
		blob, err := base64.StdEncoding.DecodeString(enc)
		if err != nil {
			return nil, fmt.Errorf("dist: program %d: %w", i, err)
		}
		if progs[i], err = asm.Decode(blob); err != nil {
			return nil, fmt.Errorf("dist: program %d: %w", i, err)
		}
	}
	rcs := make([]testbed.RunConfig, len(u.Slots))
	for i, wrc := range u.Slots {
		rc := testbed.RunConfig{
			MaxCycles:        wrc.MaxCycles,
			WarmupCycles:     wrc.WarmupCycles,
			SupplyVolts:      wrc.SupplyVolts,
			FPThrottle:       wrc.FPThrottle,
			Dither:           wrc.Dither,
			RecordWaveform:   wrc.RecordWaveform,
			ScopeSampleHz:    wrc.ScopeSampleHz,
			TriggerThreshold: wrc.TriggerThreshold,
			ExactCycleLoop:   wrc.ExactCycleLoop,
		}
		for _, wt := range wrc.Threads {
			if wt.Prog < 0 || wt.Prog >= len(progs) {
				return nil, fmt.Errorf("dist: slot %d references program %d of %d", i, wt.Prog, len(progs))
			}
			rc.Threads = append(rc.Threads, testbed.ThreadSpec{
				Program:   progs[wt.Prog],
				Module:    wt.Module,
				Core:      wt.Core,
				MaxInstrs: wt.MaxInstrs,
				StartSkew: wt.StartSkew,
			})
		}
		rcs[i] = rc
	}
	return rcs, nil
}

// decodeResult converts one wire slot outcome back to the (m, err)
// pair the batch pipeline uses.
func decodeResult(wr WireResult) (*testbed.Measurement, error) {
	if wr.Err != "" {
		return nil, &RemoteError{Msg: wr.Err, IsTransient: wr.Transient}
	}
	if wr.M == nil {
		return nil, &RemoteError{Msg: "dist: worker returned neither measurement nor error"}
	}
	return wr.M, nil
}

// encodeResult converts one slot outcome to wire form.
func encodeResult(m *testbed.Measurement, err error) WireResult {
	if err != nil {
		return WireResult{Err: err.Error(), Transient: transient(err)}
	}
	return WireResult{M: m}
}
