// Package driver models the host-side UVM driver of §3.1–§3.3: the
// centralized host page table, far-fault batching, the page-migration state
// machine with its invalidation round, the four migration policies
// (first-touch, on-touch, access-counter, page replication), and the
// integration points for IDYLL's invalidation directory.
//
// The driver talks to GPUs over the PCIe links of an interconnect.Network;
// GPUs are attached as GPUPort implementations. All driver entry points
// (FarFault, RequestMigration, RecordResidency) are invoked *after* network
// delivery — the GPU model pays the PCIe cost when sending.
package driver

import (
	"fmt"

	"idyll/internal/config"
	"idyll/internal/core"
	"idyll/internal/interconnect"
	"idyll/internal/memdef"
	"idyll/internal/pagetable"
	"idyll/internal/sim"
	"idyll/internal/sim/pdes"
	"idyll/internal/stats"
)

// GPUPort is the driver's view of one GPU. *gpu.GPU implements it; the
// methods are invoked after the CPU→GPU network delivery.
type GPUPort interface {
	// ReceiveInvalidation delivers a PTE-invalidation request. The GPU must
	// call ack exactly once when, per its scheme, the invalidation may be
	// considered accepted (baseline: local walk complete; IDYLL: buffered
	// in the IRMB; zero-latency: immediately).
	ReceiveInvalidation(vpn memdef.VPN, ack func())
	// ReceiveMapping delivers a new translation for the GPU's local page
	// table (far-fault replay or post-migration remap).
	ReceiveMapping(vpn memdef.VPN, pte pagetable.PTE)
	// ReceivePRTInsert tells a Trans-FW GPU that holder obtained a valid
	// translation for vpn.
	ReceivePRTInsert(vpn memdef.VPN, holder int)
}

// fault is one queued far fault.
type fault struct {
	gpu   int
	vpn   memdef.VPN
	write bool
	at    sim.VTime
}

// migration tracks one in-flight migration (or replication collapse).
type migration struct {
	vpn      memdef.VPN
	to       int
	start    sim.VTime
	collapse bool

	pendingAcks  int
	hostWalkDone bool
	transferred  bool
	deferred     []fault
}

// Driver is the UVM driver instance. All of its state belongs to the host
// synchronization domain; GPUs reach it only through network deliveries.
type Driver struct {
	dom     *pdes.Domain
	engine  *sim.Engine // dom's engine
	machine config.Machine
	scheme  config.Scheme
	net     *interconnect.Network
	st      *stats.Sim

	hostPT      *pagetable.Table
	hostWalkers *sim.Resource
	dir         core.Directory
	vmdir       *core.VMDirectory // non-nil when scheme.Directory == VMTable

	gpus []GPUPort

	faultQueue     []fault
	batchScheduled bool
	migrating      map[memdef.VPN]*migration
	replicas       map[memdef.VPN]map[int]memdef.PFN // reader GPU → its replica frame
	nextFrame      map[memdef.DeviceID]uint64
	// repliesInFlight counts mapping replies on the wire per page; a new
	// migration of that page must wait for them to land, or a late reply
	// would reinstall a translation the migration just killed. This is the
	// per-page operation serialization real UVM drivers enforce with
	// va_block locks.
	repliesInFlight map[memdef.VPN]int
	queuedMigration map[memdef.VPN]queuedMig
	// invalFree holds finished invalidation messages for reuse.
	invalFree []*invalMsg
}

// invalMsg is one invalidation of a migrating page sent to one GPU, from
// delivery to the ack landing back at the host. Its continuations are bound
// once, when the record is first made, and the host domain recycles it, so
// the invalidation broadcast allocates no closures. The GPU's domain only
// runs deliver and ack, which read the record.
type invalMsg struct {
	d   *Driver
	m   *migration
	gpu int
	// deliver runs at the GPU, ack is the GPU's acknowledgement, and acked
	// runs when the ack lands at the host.
	deliver, ack, acked func()
}

// queuedMig is a migration held back by in-flight replies.
type queuedMig struct {
	to       int
	collapse bool
}

// New builds a driver on the host synchronization domain.
func New(dom *pdes.Domain, machine config.Machine, scheme config.Scheme,
	net *interconnect.Network, st *stats.Sim) *Driver {
	if scheme.ZeroLatencyInval && dom.Cluster().NumDomains() > 1 {
		// The idealization invalidates every GPU synchronously from the
		// host's event — a genuinely zero-lookahead interaction that only a
		// single-domain layout can express (see internal/sim/pdes).
		panic("driver: zero-latency invalidation requires a single-domain cluster")
	}
	engine := dom.Engine()
	d := &Driver{
		dom:             dom,
		engine:          engine,
		machine:         machine,
		scheme:          scheme,
		net:             net,
		st:              st,
		hostPT:          pagetable.New(machine.PageSize),
		hostWalkers:     sim.NewResource(engine, machine.HostWalkers, -1),
		migrating:       make(map[memdef.VPN]*migration),
		replicas:        make(map[memdef.VPN]map[int]memdef.PFN),
		nextFrame:       make(map[memdef.DeviceID]uint64),
		repliesInFlight: make(map[memdef.VPN]int),
		queuedMigration: make(map[memdef.VPN]queuedMig),
	}
	switch scheme.Directory {
	case config.InPTE:
		bits := scheme.UnusedBits
		if bits <= 0 {
			bits = 11
		}
		d.dir = core.NewInPTEDirectory(d.hostPT, machine.NumGPUs, bits)
	case config.VMTable:
		d.vmdir = core.NewVMDirectory(machine.NumGPUs, 2, machine.DRAMLatency/2)
		d.dir = d.vmdir
	default:
		d.dir = core.NewBroadcastDirectory(machine.NumGPUs)
	}
	return d
}

// AttachGPUs wires the GPU ports; must be called once before simulation.
func (d *Driver) AttachGPUs(gpus []GPUPort) {
	if len(gpus) != d.machine.NumGPUs {
		panic(fmt.Sprintf("driver: %d GPU ports for %d GPUs", len(gpus), d.machine.NumGPUs))
	}
	d.gpus = gpus
}

// HostPageTable exposes the centralized page table (used by tests and the
// correctness checker).
func (d *Driver) HostPageTable() *pagetable.Table { return d.hostPT }

// VMDirectory returns the IDYLL-InMem directory, or nil.
func (d *Driver) VMDirectory() *core.VMDirectory { return d.vmdir }

// Owner reports the device currently holding vpn, if mapped.
func (d *Driver) Owner(vpn memdef.VPN) (memdef.DeviceID, bool) {
	pte, ok := d.hostPT.Lookup(vpn)
	if !ok || !pte.Valid {
		return memdef.CPUDevice, false
	}
	return pte.PFN.Device(), true
}

// Migrating reports whether vpn has an in-flight migration or collapse.
func (d *Driver) Migrating(vpn memdef.VPN) bool {
	_, ok := d.migrating[vpn]
	return ok
}

// alloc returns a fresh frame on dev.
func (d *Driver) alloc(dev memdef.DeviceID) memdef.PFN {
	f := d.nextFrame[dev]
	d.nextFrame[dev] = f + 1
	return memdef.MakePFN(dev, f)
}

// hostWalkLatency is one host page-table walk.
func (d *Driver) hostWalkLatency() sim.VTime {
	return sim.VTime(d.hostPT.Levels()) * d.machine.HostLevelLatency
}

// pageBytes is the transfer size of one page.
func (d *Driver) pageBytes() int { return int(d.machine.PageSize.Bytes()) }

// ---------------------------------------------------------------------------
// Far-fault path (§3.2): buffer, batch, walk, resolve, reply.
// ---------------------------------------------------------------------------

// FarFault is invoked when a GPU's fault notification arrives over PCIe.
func (d *Driver) FarFault(gpu int, vpn memdef.VPN, write bool) {
	d.faultQueue = append(d.faultQueue, fault{gpu: gpu, vpn: vpn, write: write, at: d.engine.Now()})
	if !d.batchScheduled {
		d.batchScheduled = true
		d.engine.Schedule(d.machine.FaultBatchWindow, d.processBatch)
	}
}

// processBatch drains up to FaultBatchSize faults into per-fault service.
func (d *Driver) processBatch() {
	n := len(d.faultQueue)
	if n > d.machine.FaultBatchSize {
		n = d.machine.FaultBatchSize
	}
	batch := d.faultQueue[:n]
	d.faultQueue = append([]fault(nil), d.faultQueue[n:]...)
	if len(d.faultQueue) > 0 {
		d.engine.Schedule(d.machine.FaultBatchWindow, d.processBatch)
	} else {
		d.batchScheduled = false
	}
	for _, f := range batch {
		d.serviceFault(f)
	}
}

// serviceFault runs one fault through the host walker and resolves it.
func (d *Driver) serviceFault(f fault) {
	if m, ok := d.migrating[f.vpn]; ok {
		m.deferred = append(m.deferred, f)
		return
	}
	d.hostWalkers.Acquire(func(release func()) {
		d.engine.Schedule(d.hostWalkLatency()+d.machine.FaultFixedLatency, func() {
			release()
			// A migration may have begun while this fault was walking.
			if m, ok := d.migrating[f.vpn]; ok {
				m.deferred = append(m.deferred, f)
				return
			}
			d.resolveFault(f)
		})
	})
}

// resolveFault decides the outcome of a walked fault per the scheme policy.
func (d *Driver) resolveFault(f fault) {
	pte, mapped := d.hostPT.Lookup(f.vpn)
	if !mapped || !pte.Valid {
		d.firstTouchPlace(f)
		return
	}
	owner := pte.PFN.Device()
	if owner == memdef.GPUDevice(f.gpu) {
		if d.scheme.Policy == config.Replication && f.write && !pte.Writable {
			// The downgraded owner wrote to a replicated page: collapse
			// back to a single writable copy (§7.4).
			d.st.WriteCollapses++
			d.startMigration(f.vpn, f.gpu, true)
			d.deferOrRetry(f)
			return
		}
		// Local already: PTE/TLB were shot down but the page never moved.
		d.recordAndReply(f.gpu, f.vpn, pte.PFN, pte.Writable)
		return
	}
	switch d.scheme.Policy {
	case config.OnTouch:
		d.startMigration(f.vpn, f.gpu, false)
		d.deferOrRetry(f)
	case config.Replication:
		d.resolveReplication(f, pte)
	default: // AccessCounter, FirstTouch: remote mapping (§3.2)
		d.recordAndReply(f.gpu, f.vpn, pte.PFN, pte.Writable)
	}
}

// firstTouchPlace migrates an untouched page from CPU memory to the faulting
// GPU — the initial placement every policy shares (§3.3).
func (d *Driver) firstTouchPlace(f fault) {
	frame := d.alloc(memdef.GPUDevice(f.gpu))
	d.hostPT.Map(f.vpn, pagetable.PTE{PFN: frame, Valid: true, Writable: true})
	d.dir.Record(f.vpn, f.gpu)
	// Page data moves CPU→GPU over PCIe, then the translation is replayed.
	// The replay is the driver's own continuation (it sends the mapping), so
	// it rides the send's local completion, not the remote delivery.
	d.net.CPUToGPU(f.gpu, d.pageBytes(), nil, func() {
		d.sendMapping(f.gpu, f.vpn, pagetable.PTE{PFN: frame, Valid: true, Writable: true})
	})
}

// recordAndReply records residency in the directory and sends the mapping.
func (d *Driver) recordAndReply(gpu int, vpn memdef.VPN, pfn memdef.PFN, writable bool) {
	d.dir.Record(vpn, gpu)
	d.sendMapping(gpu, vpn, pagetable.PTE{PFN: pfn, Valid: true, Writable: writable})
}

// sendMapping delivers a translation to a GPU over PCIe and, with Trans-FW,
// pushes fingerprint updates to the other GPUs.
func (d *Driver) sendMapping(gpu int, vpn memdef.VPN, pte pagetable.PTE) {
	d.repliesInFlight[vpn]++
	// Two continuations at the same arrival cycle: the GPU installs the
	// mapping in its own domain, while the driver retires the in-flight
	// reply in the host domain. They touch disjoint state.
	d.net.CPUToGPU(gpu, memdef.ControlMsgBytes, func() {
		d.gpus[gpu].ReceiveMapping(vpn, pte)
	}, func() {
		d.replyDelivered(vpn)
	})
	if d.scheme.TransFW {
		for g := 0; g < d.machine.NumGPUs; g++ {
			if g == gpu {
				continue
			}
			g := g
			d.net.CPUToGPU(g, memdef.ControlMsgBytes, func() {
				d.gpus[g].ReceivePRTInsert(vpn, gpu)
			}, nil)
		}
	}
}

// replyDelivered retires one in-flight reply and releases a migration that
// was waiting for the page's wire traffic to quiesce.
func (d *Driver) replyDelivered(vpn memdef.VPN) {
	d.repliesInFlight[vpn]--
	if d.repliesInFlight[vpn] > 0 {
		return
	}
	delete(d.repliesInFlight, vpn)
	q, ok := d.queuedMigration[vpn]
	if !ok {
		return
	}
	delete(d.queuedMigration, vpn)
	// Re-validate: the page may already be where the requester wants it.
	pte, mapped := d.hostPT.Lookup(vpn)
	if _, busy := d.migrating[vpn]; busy || !mapped || !pte.Valid ||
		pte.PFN.Device() == memdef.GPUDevice(q.to) {
		return
	}
	d.startMigration(vpn, q.to, q.collapse)
}

// RecordResidency is the asynchronous Trans-FW notification that a GPU
// installed a forwarded translation, keeping the directory coherent.
func (d *Driver) RecordResidency(gpu int, vpn memdef.VPN) {
	d.dir.Record(vpn, gpu)
}

// ---------------------------------------------------------------------------
// Migration path (§3.3 step 1-4, §6.2): invalidate → ack → transfer → remap.
// ---------------------------------------------------------------------------

// RequestMigration is invoked when a GPU's region access counter crosses
// the threshold and its migration request arrives over PCIe. The driver
// migrates the whole aligned block containing vpn (UVM va_block behaviour):
// every mapped page of the block that does not already live on the
// requester gets its own invalidate→transfer→remap round, all starting
// together — the invalidation burst the paper's motivation measures.
func (d *Driver) RequestMigration(gpu int, vpn memdef.VPN) {
	d.st.MigrationRequests++
	block := d.machine.MigrationBlockPages
	if block < 1 {
		block = 1
	}
	start := vpn - vpn%memdef.VPN(block)
	for p := start; p < start+memdef.VPN(block); p++ {
		if _, busy := d.migrating[p]; busy {
			continue
		}
		pte, ok := d.hostPT.Lookup(p)
		if !ok || !pte.Valid || pte.PFN.Device() == memdef.GPUDevice(gpu) {
			continue
		}
		d.startMigration(p, gpu, false)
	}
}

// startMigration opens the migration FSM for vpn toward GPU to. If mapping
// replies for the page are still on the wire, the migration queues behind
// them (per-page serialization; see repliesInFlight).
func (d *Driver) startMigration(vpn memdef.VPN, to int, collapse bool) {
	if d.repliesInFlight[vpn] > 0 {
		if _, queued := d.queuedMigration[vpn]; !queued {
			d.queuedMigration[vpn] = queuedMig{to: to, collapse: collapse}
		}
		return
	}
	m := &migration{vpn: vpn, to: to, start: d.engine.Now(), collapse: collapse}
	d.migrating[vpn] = m

	if d.scheme.ZeroLatencyInval {
		// Idealization: invalidations take effect instantaneously on every
		// GPU (zero latency includes zero delivery time) and the driver
		// waits only for its own host walk. The request messages are still
		// put on the wire so the idealization keeps the interconnect
		// congestion of a broadcast (§7.1).
		for g := 0; g < d.machine.NumGPUs; g++ {
			d.st.DirectoryTargeted++
			d.gpus[g].ReceiveInvalidation(vpn, func() {})
			d.net.CPUToGPU(g, memdef.ControlMsgBytes, nil, nil)
		}
		d.hostWalkInvalidate(m, nil)
		return
	}

	if d.dir.RequiresHostWalkFirst() {
		// §6.2: the in-PTE directory must finish the host walk to learn the
		// access bits, delaying the send — a cost the paper accepts.
		d.hostWalkInvalidate(m, func(targets []int) {
			d.sendInvalidations(m, targets)
		})
		return
	}
	// Baseline broadcasts before the walk completes; the VM-Cache lookup
	// runs in parallel with the walk and adds only its own latency.
	targets, extra := d.dir.Targets(vpn)
	d.engine.Schedule(extra, func() { d.sendInvalidations(m, targets) })
	d.hostWalkInvalidate(m, nil)
}

// hostWalkInvalidate walks the host table, reads directory targets (when
// needed), clears the directory and invalidates the host PTE. afterTargets,
// if non-nil, receives the directory's targets once the walk is done.
func (d *Driver) hostWalkInvalidate(m *migration, afterTargets func([]int)) {
	d.hostWalkers.Acquire(func(release func()) {
		d.engine.Schedule(d.hostWalkLatency(), func() {
			release()
			var targets []int
			if afterTargets != nil {
				targets, _ = d.dir.Targets(m.vpn)
			}
			d.dir.Clear(m.vpn)
			d.hostPT.Invalidate(m.vpn)
			m.hostWalkDone = true
			if afterTargets != nil {
				afterTargets(targets)
			}
			d.maybeTransfer(m)
		})
	})
}

// sendInvalidations issues the invalidation round for a migration.
func (d *Driver) sendInvalidations(m *migration, targets []int) {
	m.pendingAcks = len(targets)
	d.st.DirectoryTargeted += uint64(len(targets))
	d.st.DirectoryFiltered += uint64(d.machine.NumGPUs - len(targets))
	if len(targets) == 0 {
		d.maybeTransfer(m)
		return
	}
	for _, g := range targets {
		d.net.CPUToGPU(g, memdef.ControlMsgBytes, d.newInvalMsg(m, g).deliver, nil)
	}
}

// newInvalMsg takes an invalidation message from the free list, or makes
// one.
func (d *Driver) newInvalMsg(m *migration, gpu int) *invalMsg {
	var x *invalMsg
	if n := len(d.invalFree); n > 0 {
		x = d.invalFree[n-1]
		d.invalFree = d.invalFree[:n-1]
	} else {
		x = &invalMsg{d: d}
		x.deliver = func() { x.d.gpus[x.gpu].ReceiveInvalidation(x.m.vpn, x.ack) }
		// The GPU acks over PCIe once its scheme says so; both the
		// ReceiveInvalidation handler and this ack send run in the GPU's
		// domain, while the ack's delivery advances the migration FSM back
		// in the host domain.
		x.ack = func() { x.d.net.GPUToCPU(x.gpu, memdef.ControlMsgBytes, x.acked, nil) }
		x.acked = x.landed
	}
	x.m, x.gpu = m, gpu
	return x
}

// landed runs in the host domain when the GPU's ack arrives: the record
// goes back to the free list and the migration advances.
func (x *invalMsg) landed() {
	d, m := x.d, x.m
	x.m = nil
	d.invalFree = append(d.invalFree, x)
	m.pendingAcks--
	d.maybeTransfer(m)
}

// maybeTransfer begins the data transfer once the host walk is done and all
// invalidation acks (if any are awaited) have arrived.
func (d *Driver) maybeTransfer(m *migration) {
	if m.transferred || !m.hostWalkDone || m.pendingAcks > 0 {
		return
	}
	m.transferred = true
	d.st.MigrationWait.Add(d.engine.Now() - m.start)
	d.st.Migrations++

	// The page's pre-invalidation location was recorded in the host PTE;
	// re-read it via the (now invalid, but resident) entry.
	stale, _ := d.hostPT.Lookup(m.vpn)
	from := stale.PFN.Device()
	newFrame := d.alloc(memdef.GPUDevice(m.to))
	finish := func() { d.completeMigration(m, newFrame) }
	switch {
	case from.IsCPU():
		// finish mutates driver state, so it rides the host-side completion
		// of the data push, not the GPU-side delivery.
		d.net.CPUToGPU(m.to, d.pageBytes(), nil, finish)
	case from == memdef.GPUDevice(m.to):
		// Collapse onto a GPU that already holds the bytes (it had a
		// replica or is the owner): no bulk transfer needed.
		d.engine.Schedule(1, finish)
	default:
		// GPU→GPU copy as the command chain real drivers issue: the host
		// orders the source GPU to push the page over NVLink, and the
		// destination GPU reports the landed page back to the host, which
		// then remaps. Each hop runs in the domain that owns its link.
		d.copyGPUToGPU(from.GPUIndex(), m.to, finish)
	}
}

// copyGPUToGPU moves one page from GPU src to GPU dst via the host-issued
// command chain (ctrl to src; bulk data src→dst; ctrl ack to host) and runs
// done in the host domain once the ack lands.
func (d *Driver) copyGPUToGPU(src, dst int, done func()) {
	d.net.CPUToGPU(src, memdef.ControlMsgBytes, func() {
		d.net.GPUToGPU(src, dst, d.pageBytes(), func() {
			d.net.GPUToCPU(dst, memdef.ControlMsgBytes, done, nil)
		}, nil)
	}, nil)
}

// completeMigration installs the new mapping, replays deferred faults and
// closes the FSM.
func (d *Driver) completeMigration(m *migration, frame memdef.PFN) {
	d.hostPT.Map(m.vpn, pagetable.PTE{PFN: frame, Valid: true, Writable: true})
	delete(d.replicas, m.vpn)
	d.dir.Record(m.vpn, m.to)
	d.st.MigrationTotal.Add(d.engine.Now() - m.start)
	delete(d.migrating, m.vpn)
	d.sendMapping(m.to, m.vpn, pagetable.PTE{PFN: frame, Valid: true, Writable: true})

	// Replay deferred faults, one per GPU (the MSHR guarantees one
	// outstanding fault per page per GPU, but on-touch defers its trigger
	// fault alongside later ones).
	seen := map[int]bool{m.to: true}
	for _, f := range m.deferred {
		if seen[f.gpu] {
			continue
		}
		seen[f.gpu] = true
		d.serviceFault(f)
	}
}

// ---------------------------------------------------------------------------
// Page replication (§7.4): replicate on read, collapse on write.
// ---------------------------------------------------------------------------

// deferOrRetry parks a fault behind its page's migration; if the migration
// itself is queued behind in-flight replies, the fault retries shortly.
func (d *Driver) deferOrRetry(f fault) {
	if m, ok := d.migrating[f.vpn]; ok {
		m.deferred = append(m.deferred, f)
		return
	}
	d.engine.Schedule(64, func() { d.serviceFault(f) })
}

// resolveReplication handles a fault under the replication policy.
func (d *Driver) resolveReplication(f fault, hostPTE pagetable.PTE) {
	if f.write {
		d.st.WriteCollapses++
		d.startMigration(f.vpn, f.gpu, true)
		d.deferOrRetry(f)
		return
	}
	owner := hostPTE.PFN.Device()
	// First replica downgrades the owner to read-only so its writes trap.
	if len(d.replicas[f.vpn]) == 0 && hostPTE.Writable {
		e := d.hostPT.Entry(f.vpn)
		e.Writable = false
		if !owner.IsCPU() {
			d.sendMapping(owner.GPUIndex(), f.vpn,
				pagetable.PTE{PFN: hostPTE.PFN, Valid: true, Writable: false})
		}
	}
	frame := d.alloc(memdef.GPUDevice(f.gpu))
	if d.replicas[f.vpn] == nil {
		d.replicas[f.vpn] = make(map[int]memdef.PFN)
	}
	d.replicas[f.vpn][f.gpu] = frame
	d.dir.Record(f.vpn, f.gpu)
	d.st.Replications++
	// Copy the page from its owner to the reader, then map it locally. The
	// mapping send is driver work, so it follows the copy's host-side
	// completion (CPU owner) or the command chain's ack (GPU owner).
	mapReplica := func() {
		d.sendMapping(f.gpu, f.vpn, pagetable.PTE{PFN: frame, Valid: true, Writable: false})
	}
	if owner.IsCPU() {
		d.net.CPUToGPU(f.gpu, d.pageBytes(), nil, mapReplica)
	} else {
		d.copyGPUToGPU(owner.GPUIndex(), f.gpu, mapReplica)
	}
}

// ReplicaCount reports how many GPUs hold replicas of vpn (tests).
func (d *Driver) ReplicaCount(vpn memdef.VPN) int { return len(d.replicas[vpn]) }

// Preinstall places vpn on a GPU before simulation begins, modelling the
// staged data placement real multi-GPU applications perform (explicit
// prefetch/memadvise) so that runs measure steady-state sharing behaviour
// rather than cold-start CPU→GPU paging. It costs no simulated time and
// returns the mapping the owning GPU should pre-install locally.
func (d *Driver) Preinstall(vpn memdef.VPN, gpu int) pagetable.PTE {
	pte := pagetable.PTE{PFN: d.alloc(memdef.GPUDevice(gpu)), Valid: true, Writable: true}
	d.hostPT.Map(vpn, pte)
	d.dir.Record(vpn, gpu)
	return pte
}
