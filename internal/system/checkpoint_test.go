package system

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"idyll/internal/config"
	"idyll/internal/workload"
)

// phasedRun executes warmup+remainder straight through on one system.
func phasedRun(t *testing.T, scheme config.Scheme, trace *workload.Trace, warmup int) *System {
	t.Helper()
	s := MustNew(smallMachine(trace.NumGPUs), scheme)
	if err := s.RunWarmupCtx(nil, trace, warmup); err != nil {
		t.Fatalf("%s: warmup: %v", scheme.Name, err)
	}
	if _, err := s.RunRemainderCtx(nil, trace, warmup); err != nil {
		t.Fatalf("%s: remainder: %v", scheme.Name, err)
	}
	return s
}

// forkedRun executes the warmup on one system, checkpoints it, and resumes
// the remainder on a second, freshly built one.
func forkedRun(t *testing.T, scheme config.Scheme, trace *workload.Trace, warmup int) *System {
	t.Helper()
	m := smallMachine(trace.NumGPUs)
	warm := MustNew(m, scheme)
	if err := warm.RunWarmupCtx(nil, trace, warmup); err != nil {
		t.Fatalf("%s: warmup: %v", scheme.Name, err)
	}
	blob, err := warm.Checkpoint()
	if err != nil {
		t.Fatalf("%s: checkpoint: %v", scheme.Name, err)
	}
	fork := MustNew(m, scheme)
	if err := fork.Resume(blob); err != nil {
		t.Fatalf("%s: resume: %v", scheme.Name, err)
	}
	if _, err := fork.RunRemainderCtx(nil, trace, warmup); err != nil {
		t.Fatalf("%s: remainder after resume: %v", scheme.Name, err)
	}
	return fork
}

// Forking a run from a warmup checkpoint must be indistinguishable from
// running it straight through — for every scheme. The comparison is the
// strongest available: the final stats deep-equal, and a post-run
// checkpoint of the entire machine state is byte-identical.
func TestForkFromCheckpointMatchesStraightLine(t *testing.T) {
	const gpus, accesses, warmup = 4, 150, 60
	m := smallMachine(gpus)
	trace := workload.Generate(smallApp(), gpus, m.CUsPerGPU, accesses, 42)
	for _, name := range config.SchemeNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			scheme, err := config.SchemeByName(name)
			if err != nil {
				t.Fatal(err)
			}
			straight := phasedRun(t, scheme, trace, warmup)
			forked := forkedRun(t, scheme, trace, warmup)
			if !reflect.DeepEqual(straight.Stats, forked.Stats) {
				t.Fatalf("forked stats diverge from straight-line:\nstraight: %+v\nforked:   %+v",
					straight.Stats, forked.Stats)
			}
			sb, err := straight.Checkpoint()
			if err != nil {
				t.Fatalf("post-run checkpoint (straight): %v", err)
			}
			fb, err := forked.Checkpoint()
			if err != nil {
				t.Fatalf("post-run checkpoint (forked): %v", err)
			}
			if !bytes.Equal(sb, fb) {
				t.Fatalf("post-run machine state diverges: %d vs %d bytes", len(sb), len(fb))
			}
		})
	}
}

// The collector is live state: after the warmup alone it already counts
// every access the warmup issued.
func TestStatsLiveAfterWarmup(t *testing.T) {
	const gpus, accesses, warmup = 2, 80, 30
	m := smallMachine(gpus)
	trace := workload.Generate(smallApp(), gpus, m.CUsPerGPU, accesses, 3)
	s := MustNew(m, config.IDYLL())
	if err := s.RunWarmupCtx(nil, trace, warmup); err != nil {
		t.Fatal(err)
	}
	if want := uint64(gpus * m.CUsPerGPU * warmup); s.Stats.Accesses != want {
		t.Fatalf("Accesses after warmup = %d, want %d", s.Stats.Accesses, want)
	}
	// IRMB merges count at the event like every other IRMB count, so the
	// collector holds them before any finalize.
	if s.Stats.IRMBMergeHits == 0 {
		t.Fatal("IRMBMergeHits = 0 after warmup")
	}
}

// The phased run is itself deterministic across repetitions.
func TestPhasedRunDeterministic(t *testing.T) {
	const gpus, accesses, warmup = 4, 120, 40
	m := smallMachine(gpus)
	trace := workload.Generate(smallApp(), gpus, m.CUsPerGPU, accesses, 7)
	a := phasedRun(t, config.IDYLL(), trace, warmup)
	b := phasedRun(t, config.IDYLL(), trace, warmup)
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatal("phased run is nondeterministic")
	}
}

func TestResumeRejectsMismatchedSystem(t *testing.T) {
	const gpus, accesses, warmup = 2, 80, 30
	m := smallMachine(gpus)
	trace := workload.Generate(smallApp(), gpus, m.CUsPerGPU, accesses, 3)
	warm := MustNew(m, config.Baseline())
	if err := warm.RunWarmupCtx(nil, trace, warmup); err != nil {
		t.Fatal(err)
	}
	blob, err := warm.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := MustNew(m, config.IDYLL()).Resume(blob); err == nil {
		t.Fatal("resume into a different scheme succeeded")
	}
	m4 := smallMachine(4)
	if err := MustNew(m4, config.Baseline()).Resume(blob); err == nil {
		t.Fatal("resume into a different machine succeeded")
	}
	// Format version 3 carried each domain's message sequence counter and
	// the engine's cancel count, which version 4 drops: a v3 stream must be
	// refused at the header, not misread.
	v3 := bytes.Clone(blob)
	v3[len("IDYLLCKP")] = 3
	if err := MustNew(m, config.Baseline()).Resume(v3); err == nil ||
		!strings.Contains(err.Error(), "format version 3") {
		t.Fatalf("resume of a v3 stream: err = %v, want a format-version error", err)
	}
}

// Corrupt or truncated checkpoints must fail with an error, never panic or
// silently half-restore.
func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	const gpus, accesses, warmup = 2, 80, 30
	m := smallMachine(gpus)
	trace := workload.Generate(smallApp(), gpus, m.CUsPerGPU, accesses, 3)
	warm := MustNew(m, config.IDYLL())
	if err := warm.RunWarmupCtx(nil, trace, warmup); err != nil {
		t.Fatal(err)
	}
	blob, err := warm.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(blob) / 2, len(blob) - 1} {
		if err := MustNew(m, config.IDYLL()).Resume(blob[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	garbled := append([]byte(nil), blob...)
	garbled[len(garbled)/2] ^= 0xff
	// A flipped byte may or may not be semantically detectable, but it must
	// not panic; recovering systems are discarded on error anyway.
	_ = MustNew(m, config.IDYLL()).Resume(garbled)
}

// Checkpointing with the correctness probe installed is refused: its
// closures bind to the probed instance.
func TestCheckpointRefusesChecker(t *testing.T) {
	const gpus, accesses, warmup = 2, 80, 30
	m := smallMachine(gpus)
	trace := workload.Generate(smallApp(), gpus, m.CUsPerGPU, accesses, 3)
	s := MustNew(m, config.IDYLL())
	s.CheckTranslations = true
	if err := s.RunWarmupCtx(nil, trace, warmup); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint with CheckTranslations succeeded")
	}
}
