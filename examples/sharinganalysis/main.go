// Sharing analysis: reproduce the paper's §5 characterization for every
// Table 3 application — the page-sharing distribution (Figure 4), the
// walker request mix with its unnecessary-invalidation share (Figure 5),
// and the demand-miss/migration-wait penalties (Figures 6-7) — from raw
// simulator runs, without the experiment harness.
//
//	go run ./examples/sharinganalysis
package main

import (
	"fmt"
	"log"

	"idyll"
)

func main() {
	machine := idyll.DefaultMachine()
	machine.CUsPerGPU = 8
	machine.AccessCounterThreshold = 2
	rc := idyll.RunConfig{AccessesPerCU: 400, Seed: idyll.DefaultExperimentOptions().Seed}

	fmt.Println("Multi-GPU page sharing and invalidation pressure (baseline, 4 GPUs)")
	fmt.Printf("\n%-4s %-14s | %6s %6s %6s %6s | %7s %7s | %8s %8s\n",
		"app", "pattern", "1gpu%", "2gpu%", "3gpu%", "4gpu%", "inval%", "unnec%", "dm(cy)", "wait(cy)")

	for _, app := range idyll.Apps() {
		st, err := idyll.Simulate(machine, idyll.Baseline(), app, rc)
		if err != nil {
			log.Fatal(err)
		}
		// Sharing is a property of the trace the run replayed.
		trace := idyll.GenerateTrace(app, machine.NumGPUs, machine.CUsPerGPU, rc.AccessesPerCU, rc.Seed)
		dist := trace.Sharing(machine.PageSize).AccessDistribution(machine.NumGPUs)
		total := float64(st.WalkerDemand + st.WalkerInval + st.WalkerUpdate)
		invalShare := float64(st.WalkerInval) / total * 100
		fmt.Printf("%-4s %-14s | %5.1f%% %5.1f%% %5.1f%% %5.1f%% | %6.1f%% %6.1f%% | %8.0f %8.0f\n",
			app.Abbr, app.Pattern,
			dist[1]*100, dist[2]*100, dist[3]*100, dist[4]*100,
			invalShare, st.UnnecessaryInvalFraction()*100,
			st.DemandMiss.Mean(), st.MigrationWait.Mean())
	}

	fmt.Println(`
Columns:
  kgpu%   fraction of accesses to pages touched by exactly k GPUs (Fig 4)
  inval%  PTE-invalidation share of all page-walker requests (Fig 5)
  unnec%  invalidation walks that found no valid PTE (Fig 5)
  dm      mean demand TLB-miss latency (Fig 6 baseline)
  wait    mean page-migration waiting latency (Fig 7)

Apps with global sharing (MM, PR, KM) concentrate accesses on pages shared
by all four GPUs; transpose/exchange apps (MT, C2D, BS) on pairwise pages;
stencils (ST, SC) on neighbour halos — the structure that decides how many
invalidations each migration must broadcast.`)
}
