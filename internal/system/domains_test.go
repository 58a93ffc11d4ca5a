package system

import (
	"reflect"
	"testing"

	"idyll/internal/config"
	"idyll/internal/stats"
	"idyll/internal/workload"
)

// TestCheckTranslationsLeavesStatsUnchanged: the coherence probe only
// observes — a checked run's complete measurement set must deep-equal an
// unchecked run's, and accesses through an in-flight-stale mapping must stay
// negligible.
func TestCheckTranslationsLeavesStatsUnchanged(t *testing.T) {
	m := smallMachine(4)
	trace := workload.Generate(smallApp(), 4, m.CUsPerGPU, 150, 42)
	run := func(check bool) (*System, *stats.Sim) {
		s := MustNew(m, config.IDYLL())
		s.CheckTranslations = check
		st, err := s.Run(trace)
		if err != nil {
			t.Fatalf("check=%v: %v", check, err)
		}
		return s, st
	}
	checked, st := run(true)
	_, plain := run(false)
	if !reflect.DeepEqual(st, plain) {
		t.Fatalf("checked run diverges:\nchecked:   %s\nunchecked: %s", st.Summary(), plain.Summary())
	}
	if f := checked.StaleWindowFraction(); f > 0.01 {
		t.Fatalf("stale-window fraction %.4f above 1%%", f)
	}
}

// TestZeroLatencySchemeCollapsesToOneDomain pins the degenerate layout: the
// synchronous-invalidation ideal cannot be expressed with conservative
// windows, so its cluster must be single-domain (and therefore barrier-free).
func TestZeroLatencySchemeCollapsesToOneDomain(t *testing.T) {
	s := MustNew(smallMachine(4), config.ZeroLatency())
	if s.Cluster.NumDomains() != 1 {
		t.Fatalf("zero-latency cluster has %d domains, want 1", s.Cluster.NumDomains())
	}
	s2 := MustNew(smallMachine(4), config.IDYLL())
	if s2.Cluster.NumDomains() != 5 {
		t.Fatalf("4-GPU cluster has %d domains, want 5 (GPUs + host)", s2.Cluster.NumDomains())
	}
	if s2.Cluster.Lookahead() != 101 {
		t.Fatalf("lookahead = %d, want 101 (min link propagation + 1)", s2.Cluster.Lookahead())
	}
}
