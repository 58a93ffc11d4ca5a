// Package gpu models one GPU of the multi-GPU system (§3.1, Figure 3): the
// compute units issuing memory accesses, the per-CU L1 TLBs, the shared L2
// TLB with its MSHR, the GMMU (walk queue / PWC / walker threads), the fault
// buffer path to the UVM driver, remote-mapping data accesses over NVLink,
// access counters for counter-based migration, and the GPU half of the
// IDYLL mechanisms: the IRMB with its parallel lookup, lazy write-back, and
// drain-on-idle, plus the Trans-FW PRT.
package gpu

import (
	"idyll/internal/config"
	"idyll/internal/core"
	"idyll/internal/datapath"
	"idyll/internal/interconnect"
	"idyll/internal/memdef"
	"idyll/internal/pagemap"
	"idyll/internal/pagetable"
	"idyll/internal/sim"
	"idyll/internal/sim/pdes"
	"idyll/internal/stats"
	"idyll/internal/tlb"
	"idyll/internal/transfw"
	"idyll/internal/walker"
	"idyll/internal/workload"
)

// Host is the GPU's view of the UVM driver; methods are invoked after
// GPU→CPU network delivery. *driver.Driver satisfies it.
type Host interface {
	FarFault(gpu int, vpn memdef.VPN, write bool)
	RequestMigration(gpu int, vpn memdef.VPN)
	RecordResidency(gpu int, vpn memdef.VPN)
}

// slot is one outstanding-access slot of a CU: the access it is carrying
// through the translation and data paths and the continuations that step
// it along. The continuations are bound once, so issuing, translating,
// reading and retiring an access schedules them without allocating a
// closure per access.
type slot struct {
	g   *GPU
	cu  int
	acc workload.Access
	vpn memdef.VPN
	// owner and peer name the GPU serving a remote data access.
	owner int
	peer  *GPU
	// issue pulls the CU's next access into the slot; retire schedules
	// issue after the compute gap; afterL1 and afterL2 run once the L1 and
	// L2 TLB lookup latencies have elapsed.
	issue, retire, afterL1, afterL2 func()
	// The remote data path: remoteRead runs on delivery of the request at
	// the owner GPU, and the reply ends in retire.
	remoteRead, remoteReply func()
}

// newSlot binds a slot's continuations.
func (g *GPU) newSlot(s *slot, cu int) {
	*s = slot{g: g, cu: cu}
	s.issue = s.issueNext
	s.retire = func() { g.engine.Schedule(sim.VTime(g.traceComputeGap()), s.issue) }
	s.afterL1 = s.probeL1
	s.afterL2 = s.probeL2
	s.remoteRead = s.readRemote
	s.remoteReply = func() { g.net.GPUToGPU(s.owner, g.ID, 2*memdef.CachelineBytes, s.retire, nil) }
}

// walkReq is what the callback of one GMMU walk needs to finish the GPU's
// side: the page, plus the fact its kind of walk reports against. Records
// are pooled per GPU with their callbacks bound once; each callback returns
// its record to the pool as it runs, since the GMMU calls it exactly once.
type walkReq struct {
	g       *GPU
	vpn     memdef.VPN
	write   bool      // demand walk: whether the access that missed writes
	epoch   uint32    // update walk: the invalidation epoch it was issued under
	receipt sim.VTime // invalidation walk: when the request arrived
	ack     func()    // invalidation walk: the driver's acknowledgement

	demandDone func(pagetable.PTE, bool)
	stale      func() bool
	invalDone  func(bool)
}

// newWalkReq takes a record for vpn from the free list, or makes one.
func (g *GPU) newWalkReq(vpn memdef.VPN) *walkReq {
	var r *walkReq
	if n := len(g.reqFree); n > 0 {
		r = g.reqFree[n-1]
		g.reqFree = g.reqFree[:n-1]
	} else {
		r = &walkReq{g: g}
		r.demandDone = r.demandWalked
		r.stale = r.overtaken
		r.invalDone = r.invalidated
	}
	r.vpn = vpn
	return r
}

// free returns r to its GPU's free list.
func (r *walkReq) free() {
	r.ack = nil
	r.g.reqFree = append(r.g.reqFree, r)
}

// waiter is one access blocked on an outstanding translation: the slot
// carrying it and the cycle it missed the L2 TLB.
type waiter struct {
	s         *slot
	missStart sim.VTime
}

// pageMaps holds a GPU's per-page tables. They live in one record so that a
// released GPU hands them back together and the next GPU built reuses their
// slot arrays (see GPU.Release).
type pageMaps struct {
	// counters holds the access counter of each region with remote
	// accesses (see region); irmbReceipt the arrival time of each
	// invalidation buffered in the IRMB.
	counters    pagemap.Map[memdef.VPN, int]
	irmbReceipt pagemap.Map[memdef.VPN, sim.VTime]
	// pendingWB marks VPNs whose buffered invalidation left the IRMB for a
	// write-back walk that has not yet reached them: the local PTE is still
	// stale, so demand misses must keep treating them as IRMB hits.
	pendingWB pagemap.Map[memdef.VPN, struct{}]
	// shotDown is the shootdown fence: VPNs whose TLB shootdown has been
	// performed but whose PTE invalidation has not yet retired. In-flight
	// demand walks must not refill the TLBs for these pages — real
	// shootdowns fence new fills until the invalidation completes.
	shotDown pagemap.Map[memdef.VPN, struct{}]
	// invalEpoch counts invalidations received per page; queued PTE
	// updates carry the epoch they were issued under and abort if a newer
	// invalidation arrived while they waited in the walk queue.
	invalEpoch pagemap.Map[memdef.VPN, uint32]
}

// pageMapsKey files released pageMaps with a sim.Recycler: they fit every
// GPU.
var pageMapsKey = sim.RecycleKey{Kind: "gpu.pageMaps"}

// GPU is one device. Every piece of its state — TLBs, GMMU, IRMB, counters —
// belongs to its synchronization domain and is touched only by events on
// that domain's engine; peers and the driver reach it exclusively through
// network deliveries. The stats collector is the run's one shared stats.Sim,
// safe to share because the executor is serial and every write commutes.
type GPU struct {
	ID      int
	dom     *pdes.Domain
	engine  *sim.Engine // dom's engine, cached for the hot local paths
	hostDom *pdes.Domain
	machine config.Machine
	scheme  config.Scheme
	net     *interconnect.Network
	host    Host
	peers   []*GPU
	st      *stats.Sim

	l1tlbs []*tlb.TLB
	l2tlb  *tlb.TLB
	mshr   *tlb.MSHR[waiter]
	gmmu   *walker.GMMU
	data   *datapath.Hierarchy
	irmb   *core.IRMB
	prt    *transfw.PRT

	// The per-page tables, recycled as one record (see pageMaps).
	*pageMaps
	// wbCancelled and wbLanded are the write-back batch hooks, bound once.
	wbCancelled func(memdef.VPN) bool
	wbLanded    func(memdef.VPN, bool)

	trace          [][]workload.Access
	cuNext         []int
	running        int // CU slots still live
	finished       bool
	doneAt         sim.VTime
	computeGap     int
	instrPerAccess int
	// slots holds one record per outstanding-access slot, built in Run.
	slots []slot
	// reqFree holds finished walk requests for reuse.
	reqFree []*walkReq

	// OnTranslated, if set, is called whenever a translation is handed to a
	// data access — the hook for the system-level correctness checker.
	OnTranslated func(gpu int, vpn memdef.VPN, pfn memdef.PFN)
}

// New builds a GPU on its synchronization domain. The host domain defaults
// to the GPU's own (the single-domain layout); SetHostDomain overrides it.
// The GPU's TLBs, page-walk cache, local page table, data caches and
// per-page tables are drawn from the cluster's recycler when it holds them.
func New(dom *pdes.Domain, id int, machine config.Machine, scheme config.Scheme,
	net *interconnect.Network, st *stats.Sim) *GPU {
	engine := dom.Engine()
	r := dom.Cluster().Recycler()
	var maps *pageMaps
	if v, ok := r.Take(pageMapsKey); ok {
		maps = v.(*pageMaps)
	} else {
		maps = new(pageMaps)
	}
	g := &GPU{
		ID:       id,
		dom:      dom,
		engine:   engine,
		hostDom:  dom,
		machine:  machine,
		scheme:   scheme,
		net:      net,
		st:       st,
		pageMaps: maps,
	}
	g.l1tlbs = make([]*tlb.TLB, machine.CUsPerGPU)
	for i := range g.l1tlbs {
		g.l1tlbs[i] = tlb.NewFrom(r, tlb.Config{
			Entries: machine.L1TLBEntries, Ways: machine.L1TLBEntries,
			Latency: machine.L1TLBLatency,
		})
	}
	g.l2tlb = tlb.NewFrom(r, tlb.Config{
		Entries: machine.L2TLBEntries, Ways: machine.L2TLBWays,
		Latency: machine.L2TLBLatency,
	})
	g.mshr = tlb.NewMSHR[waiter](machine.L2MSHREntries)
	g.gmmu = walker.NewFrom(r, engine, pagetable.NewFrom(r, machine.PageSize), walker.Config{
		Threads:       machine.PTWThreads,
		QueueCapacity: machine.WalkQueueDepth,
		LevelLatency:  machine.PTWLevelLatency,
		PWCEntries:    machine.PWCEntries,
		PWCWays:       machine.PWCWays,
	}, st)
	g.data = datapath.NewFrom(r, engine, machine.CUsPerGPU, datapath.Config{
		L1Bytes: machine.L1CacheBytes, L1Ways: machine.L1CacheWays, L1HitLatency: machine.L1CacheLatency,
		L2Bytes: machine.L2CacheBytes, L2Ways: machine.L2CacheWays, L2HitLatency: machine.L2CacheLatency,
		DRAMLatency: machine.DRAMLatency,
		PageBytes:   int(machine.PageSize.Bytes()),
	}, st)
	if scheme.IRMB != (core.Geometry{}) {
		g.irmb = core.NewIRMB(scheme.IRMB)
		g.wbCancelled, g.wbLanded = g.writebackCancelled, g.writebackLanded
		if !scheme.NoIdleDrain {
			g.gmmu.SetOnIdle(g.drainIRMB)
		}
	}
	if scheme.TransFW {
		g.prt = new(transfw.PRT)
	}
	return g
}

// Release empties the GPU's TLBs, page-walk cache, local page table, data
// caches and per-page tables and files them with the cluster's recycler for
// the next GPU built to reuse, and leaves those fields nil so any later use
// panics. Call it once, after the run's last read of g.
func (g *GPU) Release() {
	r := g.dom.Cluster().Recycler()
	for _, t := range g.l1tlbs {
		t.Release(r)
	}
	g.l2tlb.Release(r)
	g.gmmu.Release(r)
	g.data.Release(r)
	m := g.pageMaps
	m.counters.Clear()
	m.irmbReceipt.Clear()
	m.pendingWB.Clear()
	m.shotDown.Clear()
	m.invalEpoch.Clear()
	r.Put(pageMapsKey, m)
	g.l1tlbs, g.l2tlb, g.gmmu, g.data, g.pageMaps = nil, nil, nil, nil, nil
}

// SetHost attaches the UVM driver.
func (g *GPU) SetHost(h Host) { g.host = h }

// SetHostDomain names the domain the UVM driver executes in, so host-side
// continuations (e.g. the CPU's DRAM read on a CPU-resident access) are
// scheduled on the host's engine, not this GPU's.
func (g *GPU) SetHostDomain(d *pdes.Domain) {
	if d != nil {
		g.hostDom = d
	}
}

// SetPeers attaches the other GPUs (for Trans-FW remote forwarding).
func (g *GPU) SetPeers(peers []*GPU) { g.peers = peers }

// GMMU exposes the GPU's MMU (tests, experiment probes).
func (g *GPU) GMMU() *walker.GMMU { return g.gmmu }

// IRMB exposes the IRMB, or nil when lazy invalidation is off.
func (g *GPU) IRMB() *core.IRMB { return g.irmb }

// PRT exposes the Trans-FW table, or nil.
func (g *GPU) PRT() *transfw.PRT { return g.prt }

// device is this GPU's memory device ID.
func (g *GPU) device() memdef.DeviceID { return memdef.GPUDevice(g.ID) }

// ---------------------------------------------------------------------------
// CU issue model.
// ---------------------------------------------------------------------------

// Run starts executing a per-CU trace. Finished reports when every CU has
// retired its last access.
func (g *GPU) Run(trace [][]workload.Access) {
	g.running, g.finished = 0, false
	g.trace = trace
	g.cuNext = make([]int, len(trace))
	perCU := g.machine.OutstandingPerCU
	g.slots = make([]slot, len(trace)*perCU)
	for i := range g.slots {
		g.newSlot(&g.slots[i], i/perCU)
	}
	for i := range g.slots {
		g.running++
		g.slots[i].issueNext()
	}
	if g.running == 0 {
		g.finishSlot()
	}
}

// DoneAt reports the cycle the last access retired.
func (g *GPU) DoneAt() sim.VTime { return g.doneAt }

// Finished reports whether every CU slot has retired its last access. Read
// it after the run completes: until then it belongs to the GPU's domain like
// the rest of the GPU's state.
func (g *GPU) Finished() bool { return g.finished }

// OutstandingMisses reports the pages with a translation miss still held in
// the L2 TLB's MSHR. Like Finished, read it after the run completes.
func (g *GPU) OutstandingMisses() int { return g.mshr.Len() }

// issueNext pulls the CU's next trace entry into this slot, or retires the
// slot when the stream is exhausted.
func (s *slot) issueNext() {
	g := s.g
	idx := g.cuNext[s.cu]
	if idx >= len(g.trace[s.cu]) {
		g.finishSlot()
		return
	}
	g.cuNext[s.cu] = idx + 1
	s.acc = g.trace[s.cu][idx]
	g.st.Accesses++
	g.st.Instructions += uint64(max(1, g.traceInstrPerAccess()))
	g.access(s)
}

func (g *GPU) finishSlot() {
	g.running--
	if g.running <= 0 {
		g.finished = true
		g.doneAt = g.engine.Now()
	}
}

// traceComputeGap and traceInstrPerAccess come from the workload params,
// injected via SetWorkloadShape.
func (g *GPU) traceComputeGap() int     { return g.computeGap }
func (g *GPU) traceInstrPerAccess() int { return g.instrPerAccess }

// SetWorkloadShape configures the issue gap and instruction scaling.
func (g *GPU) SetWorkloadShape(computeGap, instrPerAccess int) {
	g.computeGap, g.instrPerAccess = computeGap, instrPerAccess
}

// SetCounterThreshold overrides the access-counter threshold, applied by
// the system when a workload declares a ThresholdFactor.
func (g *GPU) SetCounterThreshold(t int) {
	if t > 0 {
		g.machine.AccessCounterThreshold = t
	}
}

// ---------------------------------------------------------------------------
// Translation path (§3.2, Figure 3 ❶→❻; Figure 9 Ⓐ Ⓑ Ⓒ).
// ---------------------------------------------------------------------------

// access translates and performs the slot's memory access, then calls its
// retire continuation.
func (g *GPU) access(s *slot) {
	s.vpn = memdef.PageNum(s.acc.VA, g.machine.PageSize)
	g.st.L1TLBLookups++
	g.engine.Schedule(g.l1tlbs[s.cu].Latency(), s.afterL1)
}

// probeL1 probes the CU's L1 TLB once its latency has elapsed.
func (s *slot) probeL1() {
	g := s.g
	if e, ok := g.l1tlbs[s.cu].Lookup(s.vpn); ok && (!s.acc.Write || e.Writable) {
		g.st.L1TLBHits++
		g.dataAccess(s, e)
		return
	}
	g.lookupL2(s)
}

// lookupL2 schedules the shared L2 TLB probe.
func (g *GPU) lookupL2(s *slot) {
	g.engine.Schedule(g.l2tlb.Latency(), s.afterL2)
}

// probeL2 probes the shared L2 TLB; on a miss the IRMB is probed in
// parallel (Figure 9 Ⓐ/Ⓑ) and the demand miss enters the MSHR.
func (s *slot) probeL2() {
	g, vpn, acc := s.g, s.vpn, s.acc
	g.st.L2TLBLookups++
	if e, ok := g.l2tlb.Lookup(vpn); ok && (!acc.Write || e.Writable) {
		g.st.L2TLBHits++
		g.l1tlbs[s.cu].Fill(vpn, e)
		g.dataAccess(s, e)
		return
	}
	w := waiter{s: s, missStart: g.engine.Now()}
	switch g.mshr.Add(vpn, w) {
	case tlb.Merged:
		g.st.MSHRMerges++
	case tlb.Full:
		g.engine.Schedule(8, func() { g.lookupL2(s) })
	case tlb.Allocated:
		g.launchTranslation(vpn, acc.Write)
	}
}

// launchTranslation resolves a demand miss: IRMB hit bypasses the local
// walk straight to a far fault (Figure 9 Ⓒ); otherwise the GMMU walks the
// local page table.
func (g *GPU) launchTranslation(vpn memdef.VPN, write bool) {
	if g.irmb != nil {
		g.st.IRMBLookups++
		if g.irmb.Lookup(vpn) || g.pendingWB.Has(vpn) {
			// The local PTE is stale (buffered in the IRMB, or evicted from
			// it into a write-back walk that has not landed yet); walking
			// it would read a dead translation. Raise the far fault now.
			g.st.IRMBLookupHits++
			g.farFault(vpn, write)
			return
		}
	}
	r := g.newWalkReq(vpn)
	r.write = write
	g.gmmu.Demand(vpn, r.demandDone)
}

// demandWalked finishes a demand miss once its walk completes.
func (r *walkReq) demandWalked(pagetable.PTE, bool) {
	g, vpn, write := r.g, r.vpn, r.write
	r.free()
	// Use the PTE as of walk *completion*: an invalidation walk may have
	// retired while this walk was in flight.
	pte, ok := g.gmmu.PageTable().Lookup(vpn)
	if ok && pte.Valid {
		// Shootdown fence and IRMB staleness: a pending invalidation for
		// this page means the walked translation must not be used or
		// refilled into the TLBs.
		if g.shotDown.Has(vpn) ||
			(g.irmb != nil && (g.irmb.Lookup(vpn) || g.pendingWB.Has(vpn))) {
			g.farFault(vpn, write)
			return
		}
		g.translationReady(vpn, tlb.Entry{PFN: pte.PFN, Writable: pte.Writable})
		return
	}
	g.farFault(vpn, write)
}

// overtaken is an update walk's staleness guard: an invalidation arrived
// after the update was issued.
func (r *walkReq) overtaken() bool {
	epoch, _ := r.g.invalEpoch.Get(r.vpn)
	stale := epoch != r.epoch
	r.free()
	return stale
}

// updateUnlessOvertaken queues the PTE update for vpn, guarded against
// invalidations that arrive while it waits.
func (g *GPU) updateUnlessOvertaken(vpn memdef.VPN, pte pagetable.PTE) {
	r := g.newWalkReq(vpn)
	r.epoch, _ = g.invalEpoch.Get(vpn)
	g.gmmu.UpdateUnless(vpn, pte, r.stale, nil)
}

// farFault notifies the UVM driver (Figure 3 ❻). With Trans-FW, the fault
// is simultaneously forwarded to the PRT-predicted remote GPU; whichever
// translation arrives first unblocks the MSHR.
func (g *GPU) farFault(vpn memdef.VPN, write bool) {
	g.st.FarFaults++
	if g.prt != nil {
		g.st.PRTLookups++
		if holder, ok := g.prt.Lookup(vpn); ok && holder != g.ID && holder < len(g.peers) {
			g.st.PRTHits++
			g.forwardToPeer(vpn, holder)
		}
	}
	g.net.GPUToCPU(g.ID, memdef.ControlMsgBytes, func() {
		g.host.FarFault(g.ID, vpn, write)
	}, nil)
}

// forwardToPeer asks a remote GPU for its translation of vpn (Trans-FW).
// Trans-FW provisions a dedicated remote-lookup port at each GMMU, so the
// forwarded query reads the remote page table at a fixed cost instead of
// queueing behind the remote GPU's own demand walks.
func (g *GPU) forwardToPeer(vpn memdef.VPN, holder int) {
	peer := g.peers[holder]
	// Remote PT read: PWC-assisted, roughly one memory access plus port
	// overhead.
	const remoteLookupLatency = 150
	g.net.GPUToGPU(g.ID, holder, memdef.ControlMsgBytes, func() {
		// Executing in the holder's domain now: the lookup delay and the
		// page-table read belong to the holder's engine and state.
		peer.engine.Schedule(remoteLookupLatency, func() {
			pte, ok := peer.gmmu.PageTable().Lookup(vpn)
			if ok && peer.irmb != nil && (peer.irmb.Lookup(vpn) || peer.pendingWB.Has(vpn)) {
				ok = false // the holder's own copy is pending invalidation
			}
			g.net.GPUToGPU(holder, g.ID, memdef.ControlMsgBytes, func() {
				if !ok || !pte.Valid {
					g.st.PRTFalsePositives++
					return // host path still in flight; it will resolve
				}
				if !g.mshr.Pending(vpn) {
					return // host path won already
				}
				// Install the forwarded translation and tell the driver so
				// the directory stays a superset of holders.
				g.updateUnlessOvertaken(vpn, pte)
				g.net.GPUToCPU(g.ID, memdef.ControlMsgBytes, func() {
					g.host.RecordResidency(g.ID, vpn)
				}, nil)
				g.translationReady(vpn, tlb.Entry{PFN: pte.PFN, Writable: pte.Writable})
			}, nil)
		})
	}, nil)
}

// translationReady fills the TLBs and releases every waiter merged on vpn.
func (g *GPU) translationReady(vpn memdef.VPN, e tlb.Entry) {
	waiters := g.mshr.Complete(vpn)
	g.l2tlb.Fill(vpn, e)
	for _, w := range waiters {
		if w.s.acc.Write && !e.Writable {
			// Write to a read-only mapping (a replica): permission fault.
			// The waiter keeps its missStart and is sampled once, when
			// the writable translation completes it.
			w := w
			if g.mshr.Add(vpn, w) == tlb.Allocated {
				g.farFault(vpn, true)
			}
			continue
		}
		g.st.DemandMiss.Add(g.engine.Now() - w.missStart)
		g.l1tlbs[w.s.cu].Fill(vpn, e)
		g.dataAccess(w.s, e)
	}
	// All waiters are dispatched (by value); the slice can go back to the
	// MSHR's free list. A permission-fault re-Add above draws a fresh slice,
	// never this one.
	g.mshr.Recycle(waiters)
}

// ---------------------------------------------------------------------------
// Data path: local hierarchy or remote mapping over NVLink (§3.2).
// ---------------------------------------------------------------------------

// dataAccess performs the slot's memory access once translated.
func (g *GPU) dataAccess(s *slot, e tlb.Entry) {
	if g.OnTranslated != nil {
		g.OnTranslated(g.ID, s.vpn, e.PFN)
	}
	dev := e.PFN.Device()
	pa := memdef.PAddr(uint64(e.PFN)<<g.machine.PageSize.OffsetBits() |
		memdef.PageOffset(s.acc.VA, g.machine.PageSize))
	if dev == g.device() {
		g.st.LocalAccesses++
		g.data.Access(s.cu, pa, s.acc.Write, s.retire)
		return
	}
	g.st.RemoteAccesses++
	g.countRemote(s.vpn)
	if dev.IsCPU() {
		// Pages rarely live on the host; this path keeps its closures.
		g.net.GPUToCPU(g.ID, memdef.ControlMsgBytes, func() {
			// Host domain: the CPU's DRAM read and the reply send run there.
			g.hostDom.Schedule(g.machine.DRAMLatency, func() {
				g.net.CPUToGPU(g.ID, 2*memdef.CachelineBytes, s.retire, nil)
			})
		}, nil)
		return
	}
	// Request goes out on NVLink; the owner serves it from DRAM (remote
	// data is not cached locally, §3.2).
	s.owner, s.peer = dev.GPUIndex(), g
	if g.peers != nil && s.owner < len(g.peers) && g.peers[s.owner] != nil {
		s.peer = g.peers[s.owner]
	}
	g.net.GPUToGPU(g.ID, s.owner, memdef.ControlMsgBytes, s.remoteRead, nil)
}

// readRemote runs in the owner's domain: its DRAM read and the reply send
// belong to the owner's engine.
func (s *slot) readRemote() {
	s.peer.engine.Schedule(s.g.machine.DRAMLatency, s.remoteReply)
}

// countRemote advances the access counter and fires a migration request at
// the threshold (§3.3, access-counter policy only). Counters track aligned
// regions of MigrationBlockPages pages, matching the region-granular access
// counters of Volta-class GPUs; the request names the accessed page and the
// driver migrates its whole block.
func (g *GPU) region(vpn memdef.VPN) memdef.VPN {
	if g.machine.MigrationBlockPages > 1 {
		return vpn / memdef.VPN(g.machine.MigrationBlockPages)
	}
	return vpn
}

func (g *GPU) countRemote(vpn memdef.VPN) {
	if g.scheme.Policy != config.AccessCounter {
		return
	}
	c, _ := g.counters.Put(g.region(vpn))
	if *c++; *c < g.machine.AccessCounterThreshold {
		return
	}
	*c = 0
	g.net.GPUToCPU(g.ID, memdef.ControlMsgBytes, func() {
		g.host.RequestMigration(g.ID, vpn)
	}, nil)
}

// ---------------------------------------------------------------------------
// Driver-facing port (driver.GPUPort).
// ---------------------------------------------------------------------------

// ReceiveInvalidation handles a PTE-invalidation request per the active
// scheme: TLB shootdown is always immediate (§6.3); the PTE path is a full
// walk (baseline), an IRMB insert (lazy), or free (zero-latency).
func (g *GPU) ReceiveInvalidation(vpn memdef.VPN, ack func()) {
	g.st.InvalReceived++
	receipt := g.engine.Now()
	g.shootdown(vpn)
	g.shotDown.Put(vpn)
	epoch, _ := g.invalEpoch.Put(vpn)
	*epoch++
	g.counters.Delete(g.region(vpn))
	if g.prt != nil {
		g.prt.InvalidateVPN(vpn)
	}
	g.invalidateDataCache(vpn)

	switch {
	case g.scheme.ZeroLatencyInval:
		if g.gmmu.PageTable().Invalidate(vpn) {
			g.st.InvalNecessary++
		} else {
			g.st.InvalUnnecessary++
		}
		// The PTE is already invalid; in-flight walks re-read it at
		// completion, so the fence can drop immediately.
		g.shotDown.Delete(vpn)
		g.st.Inval.Add(0)
		ack()
	case g.irmb != nil:
		g.shotDown.Delete(vpn) // the IRMB entry itself marks staleness
		g.irmbReceipt.Set(vpn, receipt)
		wb, merged := g.irmb.Insert(vpn)
		g.st.IRMBInserts++
		if merged {
			g.st.IRMBMergeHits++
		}
		if len(wb) > 0 {
			g.st.IRMBEvictions++
			g.writebackBatch(wb)
		} else if !g.scheme.NoIdleDrain && g.gmmu.Idle() {
			// The walker is already idle; without this kick the entry would
			// sit buffered until some other walk's completion fires the
			// idle hook.
			g.engine.Schedule(1, g.drainIRMB)
		}
		// Buffered: the invalidation is out of the walker's way. Ack now.
		g.engine.Schedule(1, ack)
	default:
		r := g.newWalkReq(vpn)
		r.receipt, r.ack = receipt, ack
		g.gmmu.Invalidate(vpn, r.invalDone)
	}
}

// invalidated retires an invalidation walk: the fence drops, the latency
// is recorded and the driver is acked.
func (r *walkReq) invalidated(bool) {
	g, vpn, receipt, ack := r.g, r.vpn, r.receipt, r.ack
	r.free()
	g.shotDown.Delete(vpn)
	g.st.Inval.Add(g.engine.Now() - receipt)
	ack()
}

// shootdown removes vpn from every TLB level.
func (g *GPU) shootdown(vpn memdef.VPN) {
	g.l2tlb.Shootdown(vpn)
	for _, l1 := range g.l1tlbs {
		l1.Shootdown(vpn)
	}
}

// invalidateDataCache flushes locally cached lines of a page this GPU owns,
// since its bytes are about to move.
func (g *GPU) invalidateDataCache(vpn memdef.VPN) {
	pte, ok := g.gmmu.PageTable().Lookup(vpn)
	if !ok || !pte.Valid || pte.PFN.Device() != g.device() {
		return
	}
	base := memdef.PAddr(uint64(pte.PFN) << g.machine.PageSize.OffsetBits())
	g.data.InvalidatePage(base)
}

// writebackBatch sends an evicted merged entry to the walker as one batch.
// Each VPN stays marked stale (pendingWB) until its own invalidation lands;
// a fresh mapping arriving meanwhile cancels that VPN's write-back entirely.
func (g *GPU) writebackBatch(vpns []memdef.VPN) {
	g.st.IRMBWritebacks += uint64(len(vpns))
	for _, v := range vpns {
		g.pendingWB.Put(v)
	}
	g.gmmu.InvalidateBatchFiltered(vpns, g.wbCancelled, g.wbLanded, nil)
}

// writebackCancelled reports whether a fresh mapping cancelled v's
// write-back while the batch waited.
func (g *GPU) writebackCancelled(v memdef.VPN) bool { return !g.pendingWB.Has(v) }

// writebackLanded retires v's stale marker once its invalidation lands.
func (g *GPU) writebackLanded(v memdef.VPN, _ bool) {
	g.pendingWB.Delete(v)
	if t, ok := g.irmbReceipt.Get(v); ok {
		g.st.Inval.Add(g.engine.Now() - t)
		g.irmbReceipt.Delete(v)
	}
}

// drainIRMB is the GMMU idle hook: push the LRU merged entry to the page
// table while the walker has nothing better to do (§6.3 "IRMB writeback").
func (g *GPU) drainIRMB() {
	if g.irmb == nil || g.irmb.Empty() || !g.gmmu.Idle() {
		return
	}
	batch := g.irmb.DrainLRU()
	g.st.IRMBDrains++
	g.writebackBatch(batch)
}

// ReceiveMapping installs a driver-provided translation: the IRMB entry (if
// any) is dropped — the PTE is about to be overwritten, no invalidation walk
// needed (§6.3) — the PTE update rides the walk queue, and blocked waiters
// release immediately since the translation itself is now known.
func (g *GPU) ReceiveMapping(vpn memdef.VPN, pte pagetable.PTE) {
	if g.irmb != nil {
		annihilated := g.irmb.Remove(vpn)
		if g.pendingWB.Delete(vpn) {
			// Cancelled the in-flight write-back: the incoming update will
			// overwrite the stale PTE anyway.
			annihilated = true
		}
		if annihilated {
			if t, ok := g.irmbReceipt.Get(vpn); ok {
				// The buffered invalidation was annihilated by the new
				// mapping: its whole cost was the IRMB insert.
				g.st.Inval.Add(g.engine.Now() - t)
				g.irmbReceipt.Delete(vpn)
			}
		}
	}
	g.shootdown(vpn) // replace any stale cached translation (e.g. downgrades)
	g.shotDown.Delete(vpn)
	g.counters.Delete(g.region(vpn))
	g.updateUnlessOvertaken(vpn, pte)
	if g.mshr.Pending(vpn) {
		g.translationReady(vpn, tlb.Entry{PFN: pte.PFN, Writable: pte.Writable})
	}
}

// ReceivePRTInsert records a Trans-FW fingerprint update.
func (g *GPU) ReceivePRTInsert(vpn memdef.VPN, holder int) {
	if g.prt != nil && holder != g.ID {
		g.prt.Insert(vpn, holder)
	}
}

// Preinstall writes a pre-placed mapping into the local page table before
// simulation begins (see driver.Preinstall). TLBs stay cold.
func (g *GPU) Preinstall(vpn memdef.VPN, pte pagetable.PTE) {
	g.gmmu.PageTable().Map(vpn, pte)
}
