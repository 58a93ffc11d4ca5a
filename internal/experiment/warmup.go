package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"idyll/internal/checkpoint"
	"idyll/internal/config"
	"idyll/internal/stats"
	"idyll/internal/system"
	"idyll/internal/workload"
)

// Warmup sharing: sweep cells that agree on (machine, scheme, warmup depth,
// trace) execute an identical warmup phase, so its end state — a system
// checkpoint — can be computed once and forked into every cell. The key is
// content-addressed over everything the warmup's execution depends on:
// the checkpoint format version, the machine and scheme (every field), the
// warmup depth, the trace's parameters, and the trace's full access stream —
// full, not just the warmup prefix, because pre-placement computes page
// affinity from the whole trace (system.preplace). Identical keys therefore
// guarantee bit-identical warmup state, and fork-from-checkpoint replays
// byte-identically to a straight-line run (CI-enforced; see
// internal/system/checkpoint_test.go).

// WarmupKey returns the content-addressed store key (64 hex chars) for the
// warmup checkpoint of (machine, scheme, warmup, trace).
func WarmupKey(m config.Machine, scheme config.Scheme, warmup int, trace *workload.Trace) string {
	h := sha256.New()
	fmt.Fprintf(h, "ckpt-v%d\n", checkpoint.Version)
	// %#v, not %+v: it ignores String() methods (workload.Params has one
	// that prints only a display label) and includes every field.
	fmt.Fprintf(h, "machine %#v\n", m)
	fmt.Fprintf(h, "scheme %#v\n", scheme)
	fmt.Fprintf(h, "warmup %d\n", warmup)
	// Trace params include fields Save does not carry (e.g. ThresholdFactor,
	// which scales the counter threshold at run time), so hash them
	// explicitly before the access stream.
	fmt.Fprintf(h, "params %#v\n", trace.Params)
	if err := trace.Save(h); err != nil {
		// Hash writers never fail; a Save error here means the trace itself
		// is malformed, which Generate cannot produce.
		panic(fmt.Sprintf("experiment: hashing trace: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runSystem executes one cell's trace under o's warmup policy:
//
//   - no warmup: the straight single-phase run (every pre-existing output is
//     byte-for-byte unchanged);
//   - warmup, no store: two-phase run on one system;
//   - warmup + store: fetch or compute the warmup checkpoint, fork a fresh
//     system from it, and run only the remainder.
func runSystem(o Options, m config.Machine, scheme config.Scheme, trace *workload.Trace) (*stats.Sim, error) {
	warmup := o.WarmupAccessesPerCU
	if warmup <= 0 {
		s, err := system.New(m, scheme)
		if err != nil {
			return nil, err
		}
		return s.RunCtx(o.Context(), trace)
	}
	if o.CheckpointStore == nil {
		s, err := system.New(m, scheme)
		if err != nil {
			return nil, err
		}
		if err := s.RunWarmupCtx(o.Context(), trace, warmup); err != nil {
			return nil, err
		}
		return s.RunRemainderCtx(o.Context(), trace, warmup)
	}
	key := WarmupKey(m, scheme, warmup, trace)
	compute := func() ([]byte, error) {
		scratch, err := system.New(m, scheme)
		if err != nil {
			return nil, err
		}
		if err := scratch.RunWarmupCtx(o.Context(), trace, warmup); err != nil {
			return nil, err
		}
		return scratch.Checkpoint()
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
		s, err := system.New(m, scheme)
		if err != nil {
			return nil, err
		}
		if err := s.Resume(blob); err == nil {
			return s.RunRemainderCtx(o.Context(), trace, warmup)
		}
		o.CheckpointStore.Quarantine(key)
	}
	s, err := system.New(m, scheme)
	if err != nil {
		return nil, err
	}
	if err := s.RunWarmupCtx(o.Context(), trace, warmup); err != nil {
		return nil, err
	}
	return s.RunRemainderCtx(o.Context(), trace, warmup)
}
