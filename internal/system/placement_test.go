package system

import (
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"idyll/internal/config"
	"idyll/internal/memdef"
	"idyll/internal/workload"
)

// TestSecondRunRejected: a System runs one trace. A second prepare would
// pre-place every page again on fresh frames, so it must fail instead —
// after a straight run, after a warmup, and on a resumed system — and a
// rejected call must leave the first run's results alone.
func TestSecondRunRejected(t *testing.T) {
	m := smallMachine(2)
	trace := workload.Generate(smallApp(), 2, m.CUsPerGPU, 60, 7)

	s := MustNew(m, config.IDYLL())
	st, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := json.Marshal(st)
	if _, err := s.Run(trace); err == nil || !strings.Contains(err.Error(), "runs one trace") {
		t.Fatalf("second Run: err = %v, want a one-trace error", err)
	}
	if err := s.RunWarmupCtx(context.Background(), trace, 20); err == nil {
		t.Fatal("RunWarmupCtx after Run succeeded")
	}
	if again, _ := json.Marshal(s.Stats); string(again) != string(first) {
		t.Fatal("a rejected second run changed the first run's stats")
	}

	w := MustNew(m, config.Baseline())
	if err := w.RunWarmupCtx(context.Background(), trace, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(trace); err == nil {
		t.Fatal("Run after RunWarmupCtx succeeded")
	}
	blob, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r := MustNew(m, config.Baseline())
	if err := r.Resume(blob); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(trace); err == nil {
		t.Fatal("Run on a resumed system succeeded")
	}
	if _, err := r.RunRemainderCtx(context.Background(), trace, 20); err != nil {
		t.Fatalf("remainder after resume: %v", err)
	}
}

// TestPlaceIsPureAndOrdered checks Place's output shape: ascending unique
// VPNs, owners within the machine, per-owner counts that sum to the page
// count, and the same placement from a second call.
func TestPlaceIsPureAndOrdered(t *testing.T) {
	trace := workload.Generate(smallApp(), 4, 4, 80, 11)
	for _, ps := range []memdef.PageSize{memdef.Page4K, memdef.Page2M} {
		p := Place(trace, ps)
		if len(p.VPNs) == 0 || len(p.Owners) != len(p.VPNs) || len(p.Pages) != 4 {
			t.Fatalf("%v: placement shape %d VPNs, %d owners, %d GPUs", ps, len(p.VPNs), len(p.Owners), len(p.Pages))
		}
		if !slices.IsSorted(p.VPNs) || len(slices.Compact(slices.Clone(p.VPNs))) != len(p.VPNs) {
			t.Fatalf("%v: VPNs not ascending and unique", ps)
		}
		sum := 0
		for _, n := range p.Pages {
			sum += n
		}
		if sum != len(p.VPNs) {
			t.Fatalf("%v: per-GPU pages sum to %d, want %d", ps, sum, len(p.VPNs))
		}
		q := Place(trace, ps)
		if !slices.Equal(p.VPNs, q.VPNs) || !slices.Equal(p.Owners, q.Owners) || !slices.Equal(p.Pages, q.Pages) {
			t.Fatalf("%v: two placements of one trace differ", ps)
		}
	}
}

// TestGivenPlacementMatchesOwn: a run handed the placement Place computes
// produces the same stats as a run that computes its own, for every scheme,
// and a placement made for another page size or GPU count is refused.
func TestGivenPlacementMatchesOwn(t *testing.T) {
	m := smallMachine(4)
	trace := workload.Generate(smallApp(), 4, m.CUsPerGPU, 80, 5)
	p := Place(trace, m.PageSize)
	for _, name := range config.SchemeNames() {
		scheme, err := config.SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		own, err := MustNew(m, scheme).Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		s := MustNew(m, scheme)
		s.Placement = p
		given, err := s.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(own)
		b, _ := json.Marshal(given)
		if string(a) != string(b) {
			t.Fatalf("%s: stats with a given placement differ from the run's own", name)
		}
	}
	s := MustNew(m, config.Baseline())
	s.Placement = Place(trace, memdef.Page2M)
	if _, err := s.Run(trace); err == nil {
		t.Fatal("a 2 MB placement was accepted on a 4 KB machine")
	}
	s = MustNew(smallMachine(2), config.Baseline())
	s.Placement = p
	if _, err := s.Run(workload.Generate(smallApp(), 2, 4, 20, 5)); err == nil {
		t.Fatal("a 4-GPU placement was accepted on a 2-GPU machine")
	}
}
