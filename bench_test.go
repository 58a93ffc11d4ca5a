// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (BenchmarkFigNN...), each reporting the experiment's headline
// number as a custom metric, plus micro-benchmarks of the core structures.
//
// The figure benchmarks run at a reduced scale so `go test -bench=.` stays
// tractable; `cmd/idyllbench` regenerates the full-scale tables.
package idyll_test

import (
	"runtime"
	"testing"

	"idyll"
	"idyll/internal/config"
	"idyll/internal/core"
	"idyll/internal/datapath"
	"idyll/internal/driver"
	"idyll/internal/experiment"
	"idyll/internal/interconnect"
	"idyll/internal/memdef"
	"idyll/internal/pagetable"
	"idyll/internal/sim"
	"idyll/internal/sim/pdes"
	"idyll/internal/stats"
	"idyll/internal/tlb"
)

// benchOptions is the reduced scale for benchmark runs. Jobs is pinned to 1
// so the per-figure benchmarks keep measuring simulator cost, not pool
// scheduling; BenchmarkSuiteFig11Parallel measures the runner's scaling.
func benchOptions() experiment.Options {
	o := experiment.DefaultOptions()
	o.CUsPerGPU = 8
	o.AccessesPerCU = 300
	o.Jobs = 1
	return o
}

// benchFigure runs one registry experiment per benchmark iteration and
// reports the value at (row, "Ave.") as a custom metric.
func benchFigure(b *testing.B, id, row, metric string) {
	b.Helper()
	o := benchOptions()
	e, err := experiment.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	var headline float64
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(o)
		if err != nil {
			b.Fatal(err)
		}
		v, err := tab.Get(row, "Ave.")
		if err != nil {
			// Single-column tables (Table 2) have no Ave.
			v = tab.Rows[0].Values[0]
		}
		headline = v
	}
	b.ReportMetric(headline, metric)
}

func BenchmarkFig01InvalidationOverhead(b *testing.B) {
	benchFigure(b, "fig1", "Invalidation overhead", "overhead-frac")
}

func BenchmarkFig02MigrationPolicies(b *testing.B) {
	benchFigure(b, "fig2", "Zero-Latency Invalidation", "zero-latency-speedup")
}

func BenchmarkTable3MPKI(b *testing.B) {
	benchFigure(b, "table3", "Measured MPKI", "mean-mpki")
}

func BenchmarkFig04Sharing(b *testing.B) {
	benchFigure(b, "fig4", "Shared by 4", "shared-by-4-frac")
}

func BenchmarkFig05RequestMix(b *testing.B) {
	benchFigure(b, "fig5", "Unnecessary invalidation", "unnecessary-frac")
}

func BenchmarkFig06DemandLatency(b *testing.B) {
	benchFigure(b, "fig6", "Eliminating invalidation (rel.)", "relative-latency")
}

func BenchmarkFig07MigrationWait(b *testing.B) {
	benchFigure(b, "fig7", "Waiting fraction", "wait-frac")
}

func BenchmarkFig11Overall(b *testing.B) {
	benchFigure(b, "fig11", "IDYLL", "idyll-speedup")
}

func BenchmarkFig12DemandLatency(b *testing.B) {
	benchFigure(b, "fig12", "Relative", "relative-latency")
}

func BenchmarkFig13Invalidation(b *testing.B) {
	benchFigure(b, "fig13", "Total latency", "relative-latency")
}

func BenchmarkFig14MigrationWait(b *testing.B) {
	benchFigure(b, "fig14", "Relative", "relative-wait")
}

func BenchmarkFig15IRMBSize(b *testing.B) {
	benchFigure(b, "fig15", "(32,16)", "default-geometry-speedup")
}

func BenchmarkFig16PTWThreads(b *testing.B) {
	benchFigure(b, "fig16", "16 threads", "idyll-speedup")
}

func BenchmarkFig17L2TLB(b *testing.B) {
	benchFigure(b, "fig17", "IDYLL", "idyll-speedup")
}

func BenchmarkFig18GPUCount(b *testing.B) {
	benchFigure(b, "fig18", "8-GPU", "idyll-speedup")
}

func BenchmarkFig19UnusedBits(b *testing.B) {
	benchFigure(b, "fig19", "8-GPU", "idyll-speedup")
}

func BenchmarkFig20Threshold(b *testing.B) {
	benchFigure(b, "fig20", "512 IDYLL", "idyll-speedup")
}

func BenchmarkFig21LargePages(b *testing.B) {
	benchFigure(b, "fig21", "IDYLL (2MB pages)", "idyll-speedup")
}

func BenchmarkFig22Replication(b *testing.B) {
	benchFigure(b, "fig22", "IDYLL vs replication", "idyll-speedup")
}

func BenchmarkFig23TransFW(b *testing.B) {
	benchFigure(b, "fig23", "IDYLL+Trans-FW", "combined-speedup")
}

func BenchmarkFig24DNN(b *testing.B) {
	benchFigure(b, "fig24", "IDYLL", "idyll-speedup")
}

func BenchmarkAblationDrainOnIdle(b *testing.B) {
	benchFigure(b, "ablation-drain", "Drain on idle (default)", "idyll-speedup")
}

// BenchmarkSuiteFig11Serial and BenchmarkSuiteFig11Parallel regenerate the
// headline figure's 54-cell matrix serially (-jobs=1) and on a full-width
// pool (-jobs=0, all cores); the ratio of their wall times is the suite
// runner's speedup on this machine. Output is byte-identical either way.
func BenchmarkSuiteFig11Serial(b *testing.B) {
	benchSuiteFig11(b, 1)
}

func BenchmarkSuiteFig11Parallel(b *testing.B) {
	benchSuiteFig11(b, 0)
}

// benchSuiteFig11 also reports gcs/op, the garbage collections the process
// ran per regeneration, which ties a change in allocated bytes to the
// collector work it saves or costs.
func benchSuiteFig11(b *testing.B, jobs int) {
	o := benchOptions()
	o.Jobs = jobs
	// Time the steady state: every pass reuses the machines the previous
	// one left on the recycler free list, which the first pass in a process
	// has to build.
	if _, err := experiment.Figure11(o); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var headline float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Figure11(o)
		if err != nil {
			b.Fatal(err)
		}
		headline, _ = tab.Get("IDYLL", "Ave.")
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(headline, "idyll-speedup")
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gcs/op")
}

// BenchmarkSuiteFig11Warmup regenerates the headline matrix with a warmup
// drain barrier at 80% of the trace (WarmupAccessesPerCU), so every cell
// runs the two-phase schedule.
func BenchmarkSuiteFig11Warmup(b *testing.B) {
	o := benchOptions()
	o.WarmupAccessesPerCU = o.AccessesPerCU * 4 / 5
	var headline float64
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Figure11(o)
		if err != nil {
			b.Fatal(err)
		}
		headline, _ = tab.Get("IDYLL", "Ave.")
	}
	b.ReportMetric(headline, "idyll-speedup")
}

// BenchmarkSimulatePageRank measures raw simulator throughput: simulated
// accesses per wall-clock second on the default IDYLL configuration.
func BenchmarkSimulatePageRank(b *testing.B) {
	app, err := idyll.App("PR")
	if err != nil {
		b.Fatal(err)
	}
	m := idyll.DefaultMachine()
	m.CUsPerGPU = 8
	m.AccessCounterThreshold = 2
	rc := idyll.RunConfig{AccessesPerCU: 300}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		st, err := idyll.Simulate(m, idyll.IDYLL(), app, rc)
		if err != nil {
			b.Fatal(err)
		}
		total += int(st.Accesses)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "accesses/s")
}

// Micro-benchmarks of the core hardware structures.

func BenchmarkIRMBInsertLookup(b *testing.B) {
	irmb := core.NewIRMB(core.DefaultGeometry)
	r := sim.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := memdef.VPN(r.Intn(1 << 14))
		irmb.Insert(vpn)
		irmb.Lookup(vpn)
	}
}

func BenchmarkEventEngine(b *testing.B) {
	e := sim.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(sim.VTime(i%64), func() {})
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkDataPageFlush measures the data-cache side of a page migration:
// InvalidatePage on a warm 4-CU hierarchy. "resident" re-fills two lines of
// the page from a different CU each time and flushes them, so it includes
// the two DRAM-fill accesses; "absent" flushes a page with nothing cached,
// which two thirds of fig11's flushes are.
func BenchmarkDataPageFlush(b *testing.B) {
	const cus, page = 4, memdef.PAddr(4096)
	warm := func() (*sim.Engine, *datapath.Hierarchy) {
		e := sim.NewEngine()
		h := datapath.New(e, cus, datapath.DefaultConfig(), new(stats.Sim))
		// Fill every cache with lines of pages 16 and up.
		for i := 0; i < 8192; i++ {
			h.Access(i%cus, page*16+memdef.PAddr(i*64), false, func() {})
		}
		e.Run()
		return e, h
	}
	b.Run("resident", func(b *testing.B) {
		e, h := warm()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(i%cus, page, false, func() {})
			h.Access(i%cus, page+64, true, func() {})
			h.InvalidatePage(page)
			e.Run()
		}
	})
	b.Run("absent", func(b *testing.B) {
		_, h := warm()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.InvalidatePage(page)
		}
	})
}

// BenchmarkTLBShootdown measures the TLB side of one received invalidation:
// a shootdown of the page in the L2 TLB and all 16 L1 TLBs of a GPU, every
// TLB warm. "absent" shoots down pages no TLB holds, as most of fig11's
// shootdowns are; "resident" first fills the page into the L2 and one L1,
// so it includes those two fills.
func BenchmarkTLBShootdown(b *testing.B) {
	const l1s = 16
	warm := func() (*tlb.TLB, []*tlb.TLB) {
		l2 := tlb.New(tlb.Config{Entries: 512, Ways: 16, Latency: 10})
		l1 := make([]*tlb.TLB, l1s)
		for i := range l1 {
			l1[i] = tlb.New(tlb.Config{Entries: 32, Ways: 32, Latency: 1})
			for v := 0; v < 32; v++ {
				l1[i].Fill(memdef.VPN(1<<20+i*32+v), tlb.Entry{})
			}
		}
		for v := 0; v < 512; v++ {
			l2.Fill(memdef.VPN(1<<20+v), tlb.Entry{})
		}
		return l2, l1
	}
	shootdown := func(l2 *tlb.TLB, l1 []*tlb.TLB, vpn memdef.VPN) {
		l2.Shootdown(vpn)
		for _, t := range l1 {
			t.Shootdown(vpn)
		}
	}
	b.Run("absent", func(b *testing.B) {
		l2, l1 := warm()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			shootdown(l2, l1, memdef.VPN(i%4096))
		}
	})
	b.Run("resident", func(b *testing.B) {
		l2, l1 := warm()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vpn := memdef.VPN(i % 4096)
			l2.Fill(vpn, tlb.Entry{})
			l1[i%l1s].Fill(vpn, tlb.Entry{})
			shootdown(l2, l1, vpn)
		}
	})
}

// BenchmarkPageTableWalk measures one walk of a 4 KB page table holding 4096
// PTEs in 64-page runs spread over a 2^24-page span. "hit" walks mapped
// pages (four levels to a PTE). "miss" walks unmapped pages in the mix a
// fig11 regeneration's missing walks show: three in four find an empty
// leaf slot beside a mapped run, one in four stops at an absent level-2
// entry.
func BenchmarkPageTableWalk(b *testing.B) {
	pt := pagetable.New(memdef.Page4K)
	r := sim.NewRand(5)
	var mapped []memdef.VPN
	for run := 0; run < 64; run++ {
		base := memdef.VPN(r.Intn(1<<24)) &^ 63
		for v := base; v < base+64; v++ {
			pt.Map(v, pagetable.PTE{Valid: true})
			mapped = append(mapped, v)
		}
	}
	var missing []memdef.VPN
	for len(missing) < 4096 {
		near := mapped[r.Intn(len(mapped))]
		v, levels := near&^511|memdef.VPN(r.Intn(512)), 4 // same leaf node
		if len(missing)%4 == 3 {
			v, levels = near&^(1<<18-1)|memdef.VPN(r.Intn(1<<18)), 3 // same level-3 node
		}
		if visits, _, ok := pt.Walk(v); !ok && len(visits) == levels {
			missing = append(missing, v)
		}
	}
	for _, c := range []struct {
		name string
		vpns []memdef.VPN
	}{{"hit", mapped}, {"miss", missing}} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]pagetable.Visit, 0, pt.Levels())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _, _ = pt.WalkInto(buf, c.vpns[i%len(c.vpns)])
			}
		})
	}
}

// ackingGPU stands in for a GPU at the driver's ports: it acks each
// invalidation 50 cycles after delivery and drops mappings.
type ackingGPU struct{ engine *sim.Engine }

func (g ackingGPU) ReceiveInvalidation(_ memdef.VPN, ack func()) { g.engine.Schedule(50, ack) }
func (ackingGPU) ReceiveMapping(memdef.VPN, pagetable.PTE)       {}
func (ackingGPU) ReceivePRTInsert(memdef.VPN, int)               {}

// BenchmarkDriverMigration measures one page migration through the UVM
// driver's FSM on the default 4-GPU machine with the in-PTE directory:
// request, host walk, invalidation of the old owner and its ack, GPU→GPU
// transfer, remap and the mapping reply, with the page bouncing between
// two GPUs. Its allocs/op (0 once the driver's pools are warm) is gated.
func BenchmarkDriverMigration(b *testing.B) {
	m := config.Default()
	m.MigrationBlockPages = 1
	cl := pdes.NewCluster(1, 1)
	dom := cl.Domain(0)
	net := interconnect.NewNetwork(cl, interconnect.Config{
		NumGPUs:             m.NumGPUs,
		NVLinkBytesPerCycle: m.NVLinkBytesPerCycle,
		NVLinkLatency:       m.NVLinkLatency,
		PCIeBytesPerCycle:   m.PCIeBytesPerCycle,
		PCIeLatency:         m.PCIeLatency,
	})
	d := driver.New(dom, m, config.IDYLL(), net, new(stats.Sim))
	ports := make([]driver.GPUPort, m.NumGPUs)
	for i := range ports {
		ports[i] = ackingGPU{engine: dom.Engine()}
	}
	d.AttachGPUs(ports)
	const vpn = 42
	d.Preinstall(vpn, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.RequestMigration(1-i%2, vpn)
		cl.Run()
	}
}

// BenchmarkNewSystem measures assembling one fig11 cell's machine at bench
// scale: engines for every synchronization domain, GPUs with their TLBs,
// walkers and data caches, interconnect and driver.
func BenchmarkNewSystem(b *testing.B) {
	m := idyll.DefaultMachine()
	m.CUsPerGPU = benchOptions().CUsPerGPU
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := idyll.NewSystem(m, idyll.IDYLL()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZipfSampling(b *testing.B) {
	z := sim.NewZipf(sim.NewRand(3), 4096, 1.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Rank()
	}
}
