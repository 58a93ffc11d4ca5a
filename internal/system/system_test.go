package system

import (
	"fmt"
	"testing"

	"idyll/internal/config"
	"idyll/internal/memdef"
	"idyll/internal/stats"
	"idyll/internal/workload"
)

// smallMachine returns a Table 2 machine scaled down for fast tests.
func smallMachine(gpus int) config.Machine {
	m := config.Default()
	m.NumGPUs = gpus
	m.CUsPerGPU = 4
	m.AccessCounterThreshold = 16 // short traces: keep migrations flowing
	return m
}

// smallApp returns a quick synthetic app with aggressive sharing so a short
// trace still triggers migrations.
func smallApp() workload.Params {
	p, _ := workload.App("PR")
	p.PagesPerGPU = 256
	p.HotPages = 16
	return p
}

func runSmall(t *testing.T, scheme config.Scheme, gpus, accesses int) (*System, *stats.Sim) {
	t.Helper()
	m := smallMachine(gpus)
	s := MustNew(m, scheme)
	s.CheckTranslations = true
	trace := workload.Generate(smallApp(), gpus, m.CUsPerGPU, accesses, 42)
	st, err := s.Run(trace)
	if err != nil {
		t.Fatalf("%s: %v", scheme.Name, err)
	}
	return s, st
}

// Every access issued must retire, under every scheme — the fundamental
// liveness check of the whole machine.
func TestAllSchemesCompleteAllAccesses(t *testing.T) {
	schemes := []config.Scheme{
		config.Baseline(), config.OnlyLazy(), config.OnlyInPTE(),
		config.IDYLL(), config.IDYLLInMem(), config.ZeroLatency(),
		config.FirstTouchScheme(), config.OnTouchScheme(),
		config.ReplicationScheme(), config.TransFWScheme(), config.IDYLLTransFW(),
	}
	for _, sc := range schemes {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			_, st := runSmall(t, sc, 4, 150)
			want := uint64(4 * 4 * 150)
			if st.Accesses != want {
				t.Fatalf("issued %d accesses, want %d", st.Accesses, want)
			}
			if st.ExecCycles <= 0 {
				t.Fatal("no execution time recorded")
			}
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	_, a := runSmall(t, config.IDYLL(), 4, 120)
	_, b := runSmall(t, config.IDYLL(), 4, 120)
	if a.ExecCycles != b.ExecCycles || a.Migrations != b.Migrations ||
		a.FarFaults != b.FarFaults || a.InvalReceived != b.InvalReceived {
		t.Fatalf("nondeterministic: %d/%d cyc, %d/%d mig, %d/%d faults",
			a.ExecCycles, b.ExecCycles, a.Migrations, b.Migrations, a.FarFaults, b.FarFaults)
	}
}

func TestBaselineTriggersMigrationsAndInvalidation(t *testing.T) {
	_, st := runSmall(t, config.Baseline(), 4, 300)
	if st.Migrations == 0 {
		t.Fatal("hot shared workload produced no migrations")
	}
	if st.InvalReceived == 0 {
		t.Fatal("migrations produced no invalidation requests")
	}
	// Broadcast: every migration invalidates every GPU.
	if st.InvalReceived != st.Migrations*4 {
		t.Fatalf("invals=%d, want migrations×4=%d", st.InvalReceived, st.Migrations*4)
	}
	if st.InvalUnnecessary == 0 {
		t.Fatal("broadcast should hit GPUs without valid PTEs (unnecessary invals)")
	}
	if st.MigrationWait.Count != st.Migrations {
		t.Fatalf("wait samples=%d, migrations=%d", st.MigrationWait.Count, st.Migrations)
	}
}

func TestInPTEDirectoryFiltersInvalidations(t *testing.T) {
	_, base := runSmall(t, config.Baseline(), 4, 300)
	_, dir := runSmall(t, config.OnlyInPTE(), 4, 300)
	if dir.DirectoryFiltered == 0 {
		t.Fatal("directory never filtered an invalidation")
	}
	baseRate := float64(base.InvalReceived) / float64(maxU(base.Migrations, 1))
	dirRate := float64(dir.InvalReceived) / float64(maxU(dir.Migrations, 1))
	if dirRate >= baseRate {
		t.Fatalf("directory did not reduce invals per migration: %.2f vs %.2f", dirRate, baseRate)
	}
}

func TestIDYLLUsesIRMB(t *testing.T) {
	s, st := runSmall(t, config.IDYLL(), 4, 300)
	if st.IRMBInserts == 0 {
		t.Fatal("IRMB never used")
	}
	// Lazy invalidation must keep walker-side inval traffic near zero at
	// request time; write-backs happen in batches or drains.
	if st.IRMBWritebacks+uint64(totalPendingIRMB(s)) == 0 && st.IRMBInserts > 0 {
		// All inserted entries must either be written back, drained, or
		// removed by new mappings — accounted via stats.
		t.Log("all IRMB entries removed by new mappings (acceptable)")
	}
	if frac := s.StaleWindowFraction(); frac > 0.02 {
		t.Fatalf("stale-window accesses = %.4f of all accesses", frac)
	}
}

func totalPendingIRMB(s *System) int {
	n := 0
	for _, g := range s.GPUs {
		if g.IRMB() != nil {
			n += g.IRMB().PendingInvalidations()
		}
	}
	return n
}

func TestZeroLatencyWaitsOnlyForHostWalk(t *testing.T) {
	_, base := runSmall(t, config.Baseline(), 4, 300)
	_, zero := runSmall(t, config.ZeroLatency(), 4, 300)
	if zero.Migrations == 0 {
		t.Fatal("no migrations under zero-latency")
	}
	if zero.MigrationWait.Mean() >= base.MigrationWait.Mean() {
		t.Fatalf("zero-latency wait %.0f ≥ baseline %.0f",
			zero.MigrationWait.Mean(), base.MigrationWait.Mean())
	}
}

func TestFirstTouchNeverMigrates(t *testing.T) {
	_, st := runSmall(t, config.FirstTouchScheme(), 4, 200)
	if st.Migrations != 0 {
		t.Fatalf("first-touch migrated %d pages", st.Migrations)
	}
	if st.RemoteAccesses == 0 {
		t.Fatal("first-touch with sharing must produce remote accesses")
	}
}

func TestOnTouchMigratesAggressively(t *testing.T) {
	_, on := runSmall(t, config.OnTouchScheme(), 4, 200)
	_, counter := runSmall(t, config.Baseline(), 4, 200)
	if on.Migrations <= counter.Migrations {
		t.Fatalf("on-touch migrations %d ≤ counter-based %d", on.Migrations, counter.Migrations)
	}
}

func TestReplicationCreatesReplicasAndCollapses(t *testing.T) {
	_, st := runSmall(t, config.ReplicationScheme(), 4, 300)
	if st.Replications == 0 {
		t.Fatal("replication policy never replicated")
	}
	if st.WriteCollapses == 0 {
		t.Fatal("writes to replicated pages never collapsed")
	}
}

func TestTransFWForwardsFaults(t *testing.T) {
	_, st := runSmall(t, config.TransFWScheme(), 4, 300)
	if st.PRTLookups == 0 {
		t.Fatal("PRT never consulted")
	}
	if st.PRTHits == 0 {
		t.Fatal("PRT never predicted")
	}
}

func TestVMDirectoryServesIDYLLInMem(t *testing.T) {
	s, st := runSmall(t, config.IDYLLInMem(), 4, 300)
	vm := s.Driver.VMDirectory()
	if vm == nil {
		t.Fatal("IDYLL-InMem has no VM directory")
	}
	if vm.Lookups() == 0 {
		t.Fatal("VM-Cache never consulted")
	}
	if st.Migrations == 0 {
		t.Fatal("no migrations under IDYLL-InMem")
	}
}

// VMCacheHits is the directory's exact hit count over every fig11 app, not a
// value rebuilt from the hit rate (a float round trip truncates one low for
// some (lookups, hits) pairs).
func TestVMCacheHitsExact(t *testing.T) {
	m := smallMachine(4)
	for _, app := range workload.Apps() {
		s := MustNew(m, config.IDYLLInMem())
		st, err := s.Run(workload.Generate(app, m.NumGPUs, m.CUsPerGPU, 300, 1))
		if err != nil {
			t.Fatalf("%s: %v", app.Abbr, err)
		}
		if want := s.Driver.VMDirectory().Hits(); st.VMCacheHits != want {
			t.Errorf("%s: VMCacheHits = %d, want %d (of %d lookups)",
				app.Abbr, st.VMCacheHits, want, st.VMCacheLookups)
		}
	}
}

func TestSingleGPUHasNoMigrations(t *testing.T) {
	m := smallMachine(1)
	s := MustNew(m, config.Baseline())
	s.CheckTranslations = true
	p := smallApp()
	trace := workload.Generate(p, 1, m.CUsPerGPU, 200, 7)
	st, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if st.Migrations != 0 || st.RemoteAccesses != 0 {
		t.Fatalf("single GPU: migrations=%d remote=%d", st.Migrations, st.RemoteAccesses)
	}
	// Affinity pre-placement means a single GPU owns everything: no faults.
	if st.FarFaults != 0 {
		t.Fatalf("pre-placed single-GPU run faulted %d times", st.FarFaults)
	}
}

func TestColdStartFirstTouchFaults(t *testing.T) {
	m := smallMachine(1)
	s := MustNew(m, config.Baseline())
	s.ColdStart = true
	trace := workload.Generate(smallApp(), 1, m.CUsPerGPU, 200, 7)
	st, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if st.FarFaults == 0 {
		t.Fatal("cold start must first-touch fault")
	}
	if st.PCIeBytes == 0 {
		t.Fatal("cold start must page data in over PCIe")
	}
}

func TestTraceGPUMismatchErrors(t *testing.T) {
	s := MustNew(smallMachine(4), config.Baseline())
	trace := workload.Generate(smallApp(), 2, 2, 10, 1)
	if _, err := s.Run(trace); err == nil {
		t.Fatal("mismatched trace accepted")
	}
}

func TestSharingTrackerSeesMultiGPUSharing(t *testing.T) {
	_, st := runSmall(t, config.Baseline(), 4, 300)
	m := smallMachine(4)
	sh := workload.Generate(smallApp(), 4, m.CUsPerGPU, 300, 42).Sharing(m.PageSize)
	var total uint64
	for _, p := range sh {
		total += p.Accesses
	}
	if total != st.Accesses {
		t.Fatalf("trace sharing counts %d accesses, the run issued %d", total, st.Accesses)
	}
	if sh.SharedAccessRatio() < 0.2 {
		t.Fatalf("PR-like workload shared ratio = %.2f", sh.SharedAccessRatio())
	}
	dist := sh.AccessDistribution(4)
	if dist[4] == 0 {
		t.Fatal("no 4-GPU-shared accesses in a PR-like workload")
	}
}

func TestLargePageMachineRuns(t *testing.T) {
	m := smallMachine(4)
	m.PageSize = memdef.Page2M
	s := MustNew(m, config.IDYLL())
	s.CheckTranslations = true
	p := smallApp()
	trace := workload.Generate(p, 4, m.CUsPerGPU, 150, 5)
	st, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses == 0 || st.ExecCycles == 0 {
		t.Fatal("2MB run produced nothing")
	}
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Every run must end drained: no event or staged message left, and no
// MSHR entry, walker, walk, migration or mapping reply still in flight
// (finalize's conservation checks). Each L2 TLB miss is sampled in
// DemandMiss exactly once, at its final completion (a replica's write
// permission fault re-queues the waiter rather than completing it).
// Quick-scale cells of every scheme on 4 and on 16 GPUs.
func TestRunsEndDrained(t *testing.T) {
	app, err := workload.App("PR")
	if err != nil {
		t.Fatal(err)
	}
	for _, gpus := range []int{4, 16} {
		m := config.Default()
		m.NumGPUs, m.CUsPerGPU = gpus, 4
		trace := workload.Generate(app, gpus, m.CUsPerGPU, 200, 7)
		for _, name := range config.SchemeNames() {
			sc, err := config.SchemeByName(name)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%dgpu/%s", gpus, name), func(t *testing.T) {
				s := MustNew(m, sc)
				defer s.Release()
				st, err := s.Run(trace)
				if err != nil {
					t.Fatal(err)
				}
				if misses := st.L2TLBLookups - st.L2TLBHits; st.DemandMiss.Count != misses {
					t.Errorf("DemandMiss.Count = %d, want L2 TLB misses %d", st.DemandMiss.Count, misses)
				}
			})
		}
	}
}
