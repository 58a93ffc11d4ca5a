package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"idyll/internal/checkpoint"
	"idyll/internal/config"
	"idyll/internal/core"
	"idyll/internal/sim"
	"idyll/internal/stats"
	"idyll/internal/system"
	"idyll/internal/transfw"
)

// Warmup sharing: sweep cells that agree on (machine, scheme, warmup depth,
// trace) execute an identical warmup phase, so its end state — a system
// checkpoint — can be computed once and forked into every cell. The key is
// content-addressed over everything the warmup's execution depends on:
// the checkpoint format version, the machine and scheme (every field), the
// warmup depth, the trace's parameters, and the trace's full access stream —
// full, not just the warmup prefix, because pre-placement computes page
// affinity from the whole trace (system.Place). Identical keys therefore
// guarantee bit-identical warmup state, and fork-from-checkpoint replays
// byte-identically to a straight-line run (CI-enforced; see
// internal/system/checkpoint_test.go).

// warmupKey returns the content-addressed store key (64 hex chars) for the
// warmup checkpoint of (machine, scheme, warmup) on the shared trace. The
// trace's Save encoding, the part of the key every cell replaying it
// shares, is made once and kept for the trace's other cells.
func (e *sharedTrace) warmupKey(m config.Machine, scheme config.Scheme, warmup int) string {
	e.encOnce.Do(func() {
		var b bytes.Buffer
		if err := e.trace.Save(&b); err != nil {
			// Buffer writes never fail; a Save error here means the
			// trace itself is malformed, which Generate cannot produce.
			panic(fmt.Sprintf("experiment: encoding trace: %v", err))
		}
		e.enc = b.Bytes()
	})
	h := sha256.New()
	fmt.Fprintf(h, "ckpt-v%d\n", checkpoint.Version)
	// %#v, not %+v: it ignores String() methods (workload.Params has one
	// that prints only a display label) and includes every field.
	fmt.Fprintf(h, "machine %#v\n", m)
	// The scheme is hashed in the layout %#v gave it while lazy
	// invalidation (now: a non-zero IRMB) and the Trans-FW PRT capacity were
	// Scheme fields, so checkpoints stored under those keys keep hitting.
	// TestWarmupKeyGolden pins the keys and fails when Scheme gains a field
	// this line does not hash.
	prtCapacity := 0
	if scheme.TransFW {
		prtCapacity = transfw.Capacity
	}
	fmt.Fprintf(h, "scheme config.Scheme{Name:%#v, Policy:%#v, Directory:%#v, Lazy:%#v, "+
		"IRMB:%#v, UnusedBits:%#v, ZeroLatencyInval:%#v, TransFW:%#v, PRTCapacity:%#v, NoIdleDrain:%#v}\n",
		scheme.Name, scheme.Policy, scheme.Directory, scheme.IRMB != (core.Geometry{}),
		scheme.IRMB, scheme.UnusedBits, scheme.ZeroLatencyInval, scheme.TransFW, prtCapacity, scheme.NoIdleDrain)
	fmt.Fprintf(h, "warmup %d\n", warmup)
	// Trace params include fields Save does not carry (e.g. ThresholdFactor,
	// which scales the counter threshold at run time), so hash them
	// explicitly before the access stream.
	fmt.Fprintf(h, "params %#v\n", e.trace.Params)
	h.Write(e.enc)
	return hex.EncodeToString(h.Sum(nil))
}

// runSystem executes one cell's trace, sh.trace, under o's warmup policy:
//
//   - no warmup: the straight single-phase run (every pre-existing output is
//     byte-for-byte unchanged);
//   - warmup, no store: two-phase run on one system;
//   - warmup + store: fetch or compute the warmup checkpoint, fork a fresh
//     system from it, and run only the remainder.
//
// sh.place, when non-nil, is the trace's placement at m's page size, shared
// by every system built here; when nil, each system computes its own. Every
// system is built from r and released into it once its run returns.
func runSystem(o Options, m config.Machine, scheme config.Scheme, sh *sharedTrace, r *sim.Recycler) (*stats.Sim, error) {
	trace, place := sh.trace, sh.place
	newSystem := func() (*system.System, error) {
		s, err := system.NewFrom(r, m, scheme)
		if err == nil {
			s.Placement = place
		}
		return s, err
	}
	warmup := o.WarmupAccessesPerCU
	// straight runs trace on a new system: whole, or in the two phases
	// around the warmup drain barrier.
	straight := func() (*stats.Sim, error) {
		s, err := newSystem()
		if err != nil {
			return nil, err
		}
		defer s.Release()
		if warmup <= 0 {
			return s.RunCtx(o.Context(), trace)
		}
		if err := s.RunWarmupCtx(o.Context(), trace, warmup); err != nil {
			return nil, err
		}
		return s.RunRemainderCtx(o.Context(), trace, warmup)
	}
	if warmup <= 0 || o.CheckpointStore == nil {
		return straight()
	}
	key := sh.warmupKey(m, scheme, warmup)
	compute := func() ([]byte, error) {
		scratch, err := newSystem()
		if err != nil {
			return nil, err
		}
		defer scratch.Release()
		if err := scratch.RunWarmupCtx(o.Context(), trace, warmup); err != nil {
			return nil, err
		}
		return scratch.Checkpoint()
	}
	// resume forks a new system from blob and runs the remainder; ok is
	// false when blob does not decode.
	resume := func(blob []byte) (st *stats.Sim, ok bool, err error) {
		s, err := newSystem()
		if err != nil {
			return nil, true, err
		}
		defer s.Release()
		if err := s.Resume(blob); err != nil {
			return nil, false, nil
		}
		st, err = s.RunRemainderCtx(o.Context(), trace, warmup)
		return st, true, err
	}
	// A stored checkpoint that fails to decode must cost a recompute, never
	// the job: quarantine it and retry once (the store recomputes on the
	// retry because the bad entry is gone). If even freshly computed bytes
	// fail to resume, fall through to the straight two-phase run.
	for attempt := 0; attempt < 2; attempt++ {
		blob, _, err := o.CheckpointStore.GetOrCompute(o.Context(), key, compute)
		if err != nil {
			return nil, err
		}
		if st, ok, err := resume(blob); ok {
			return st, err
		}
		o.CheckpointStore.Quarantine(key)
	}
	return straight()
}
