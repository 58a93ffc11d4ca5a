// DNN pipeline: reproduce §7.6 — layer-parallel VGG16 and ResNet18 across
// 4 GPUs, where activation buffers and shared trunk weights ping-pong
// between pipeline stages and trigger counter-based migrations. Compares
// baseline, IDYLL, and IDYLL+Trans-FW on both networks.
//
//	go run ./examples/dnnpipeline
package main

import (
	"fmt"
	"log"

	"idyll"
)

func main() {
	machine := idyll.DefaultMachine()
	machine.CUsPerGPU = 16
	machine.AccessCounterThreshold = 2
	rc := idyll.RunConfig{AccessesPerCU: 600, Seed: idyll.DefaultExperimentOptions().Seed}

	for _, name := range []string{"VGG16", "ResNet18"} {
		app, err := idyll.App(name)
		if err != nil {
			log.Fatal(err)
		}
		base, err := idyll.Simulate(machine, idyll.Baseline(), app, rc)
		if err != nil {
			log.Fatal(err)
		}
		trace := idyll.GenerateTrace(app, machine.NumGPUs, machine.CUsPerGPU, rc.AccessesPerCU, rc.Seed)
		fmt.Printf("%s, layer-parallel across %d GPUs (%d layers)\n",
			app.Name, machine.NumGPUs, len(app.DNNLayers))
		fmt.Printf("  baseline: %d cycles, %d migrations, %d invalidations, %.1f%% shared accesses\n",
			base.ExecCycles, base.Migrations, base.InvalReceived,
			trace.Sharing(machine.PageSize).SharedAccessRatio()*100)
		for _, s := range []idyll.Scheme{idyll.IDYLL(), idyll.IDYLLTransFW()} {
			st, err := idyll.Simulate(machine, s, app, rc)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-16s %.2fx (demand miss %.0f→%.0f cy, wait %.0f→%.0f cy)\n",
				s.Name+":", st.Speedup(base),
				base.DemandMiss.Mean(), st.DemandMiss.Mean(),
				base.MigrationWait.Mean(), st.MigrationWait.Mean())
		}
		fmt.Println()
	}

	fmt.Println(`Each pipeline stage reads the activations its predecessor wrote and the
shared trunk weights, so weight/activation pages migrate back and forth
between neighbouring GPUs — the "substantial weight sharing" the paper
identifies as the source of PTE invalidations in DNN training (§7.6).`)
}
