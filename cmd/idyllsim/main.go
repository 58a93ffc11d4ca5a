// Command idyllsim runs one (application × scheme) simulation and prints
// the collected statistics — the single-run entry point for exploring the
// simulator.
//
// Usage:
//
//	idyllsim -app PR -scheme idyll -gpus 4 -cus 16 -accesses 600
//	idyllsim -list
//
// Schemes: baseline, lazy, inpte, idyll, inmem, zero, first-touch,
// on-touch, replication, transfw, idyll+transfw.
package main

import (
	"flag"
	"fmt"
	"os"

	"idyll/internal/config"
	"idyll/internal/experiment"
	"idyll/internal/system"
	"idyll/internal/workload"
)

func main() {
	def, machine := experiment.DefaultOptions(), config.Default()
	var (
		appName    = flag.String("app", "PR", "application abbreviation (see -list)")
		schemeName = flag.String("scheme", "idyll", "scheme to simulate")
		gpus       = flag.Int("gpus", machine.NumGPUs, "number of GPUs")
		cus        = flag.Int("cus", def.CUsPerGPU, "compute units per GPU")
		accesses   = flag.Int("accesses", def.AccessesPerCU, "memory accesses per CU")
		threshold  = flag.Int("threshold", def.CounterThreshold, "access-counter threshold (paper's 256 scaled, see EXPERIMENTS.md)")
		seed       = flag.Uint64("seed", def.Seed, "workload seed")
		list       = flag.Bool("list", false, "list applications and exit")
		check      = flag.Bool("check", true, "enable the translation-coherence checker")
		verbose    = flag.Bool("v", false, "print extended statistics")
	)
	flag.Parse()

	if *list {
		fmt.Println("Table 3 applications:")
		for _, p := range workload.Apps() {
			fmt.Printf("  %s\n", p)
		}
		fmt.Println("DNN workloads (§7.6):")
		for _, p := range workload.DNNApps() {
			fmt.Printf("  %-4s %s\n", p.Abbr, p.Name)
		}
		return
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"gpus", *gpus}, {"cus", *cus}, {"accesses", *accesses}} {
		if f.v <= 0 {
			fatal(fmt.Errorf("-%s must be positive, got %d", f.name, f.v))
		}
	}

	app, err := workload.App(*appName)
	fatal(err)
	scheme, err := config.SchemeByName(*schemeName)
	fatal(err)

	m := machine
	m.NumGPUs = *gpus
	m.CUsPerGPU = *cus
	m.AccessCounterThreshold = *threshold

	s, err := system.New(m, scheme)
	fatal(err)
	defer s.Release()
	s.CheckTranslations = *check
	trace := workload.Generate(app, m.NumGPUs, m.CUsPerGPU, *accesses, *seed)
	st, err := s.Run(trace)
	fatal(err)

	fmt.Printf("app=%s scheme=%q gpus=%d cus=%d accesses/cu=%d\n",
		app.Abbr, scheme.Name, m.NumGPUs, m.CUsPerGPU, *accesses)
	fmt.Println(st.Summary())
	if *verbose {
		fmt.Printf("  L1 TLB hit rate: %.1f%%  L2 TLB hit rate: %.1f%%\n",
			pct(st.L1TLBHits, st.L1TLBLookups), pct(st.L2TLBHits, st.L2TLBLookups))
		fmt.Printf("  walker requests: demand=%d inval=%d update=%d (queue rejects %d)\n",
			st.WalkerDemand, st.WalkerInval, st.WalkerUpdate, st.WalkQueueRejects)
		fmt.Printf("  PWC hit rate: %.1f%%  MSHR merges: %d\n",
			pct(st.PWCHits, st.PWCLookups), st.MSHRMerges)
		fmt.Printf("  remote accesses: %d (%.1f%% of data accesses)\n",
			st.RemoteAccesses, pct(st.RemoteAccesses, st.RemoteAccesses+st.LocalAccesses))
		fmt.Printf("  migrations: %d (requests %d), mean wait %.0f cy, mean total %.0f cy\n",
			st.Migrations, st.MigrationRequests, st.MigrationWait.Mean(), st.MigrationTotal.Mean())
		fmt.Printf("  invalidations: recv=%d necessary=%d unnecessary=%d mean latency %.0f cy\n",
			st.InvalReceived, st.InvalNecessary, st.InvalUnnecessary, st.Inval.Mean())
		fmt.Printf("  demand-miss distribution: p50=%d p90=%d p99=%d max=%d cy\n",
			st.DemandMiss.Percentile(50), st.DemandMiss.Percentile(90),
			st.DemandMiss.Percentile(99), st.DemandMiss.Max)
		if st.IRMBInserts > 0 {
			fmt.Printf("  IRMB: inserts=%d merges=%d evictions=%d drains=%d lookup hits=%d writebacks=%d\n",
				st.IRMBInserts, st.IRMBMergeHits, st.IRMBEvictions, st.IRMBDrains,
				st.IRMBLookupHits, st.IRMBWritebacks)
		}
		if st.DirectoryTargeted > 0 {
			fmt.Printf("  directory: targeted=%d filtered=%d\n",
				st.DirectoryTargeted, st.DirectoryFiltered)
		}
		if st.PRTLookups > 0 {
			fmt.Printf("  Trans-FW PRT: lookups=%d hits=%d false positives=%d\n",
				st.PRTLookups, st.PRTHits, st.PRTFalsePositives)
		}
		if st.Replications > 0 {
			fmt.Printf("  replication: replicas=%d write collapses=%d\n",
				st.Replications, st.WriteCollapses)
		}
		fmt.Printf("  traffic: NVLink %d B, PCIe %d B\n", st.NVLinkBytes, st.PCIeBytes)
		sh := trace.Sharing(m.PageSize)
		fmt.Printf("  sharing: %.1f%% of accesses to multi-GPU pages over %d pages\n",
			sh.SharedAccessRatio()*100, sh.Pages())
		if *check {
			fmt.Printf("  stale-window accesses: %.4f%%\n", s.StaleWindowFraction()*100)
		}
	}
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den) * 100
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "idyllsim:", err)
		os.Exit(1)
	}
}
