package system

import (
	"testing"

	"idyll/internal/checkpoint"
	"idyll/internal/config"
	"idyll/internal/workload"
)

// FuzzResume feeds arbitrary bytes to the whole-machine checkpoint decoder.
// Resume must reject malformed input with an error — never panic, never
// over-allocate. The seed corpus is a real warmup checkpoint, so the fuzzer
// mutates from a deep, fully-populated state stream rather than from headers
// alone. (Semantic validity of an *accepted* stream is the identity tests'
// job — see TestForkFromCheckpointMatchesStraightLine; a mutated counter that
// decodes cleanly is beyond what a structural decoder can reject.)
func FuzzResume(f *testing.F) {
	const gpus, accesses, warmup = 2, 60, 30
	m := smallMachine(gpus)
	trace := workload.Generate(smallApp(), gpus, m.CUsPerGPU, accesses, 13)
	scheme := config.IDYLL()
	warm := MustNew(m, scheme)
	if err := warm.RunWarmupCtx(nil, trace, warmup); err != nil {
		f.Fatal(err)
	}
	blob, err := warm.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(checkpoint.NewWriter().Finish())    // valid header, no state
	f.Add([]byte("IDYLLCKP\x03\x00\x00\x00")) // stale format version 3

	f.Fuzz(func(t *testing.T, data []byte) {
		s := MustNew(m, scheme)
		_ = s.Resume(data) // error or success; panicking is the only failure
	})
}
