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
	"math/bits"

	"idyll/internal/config"
	"idyll/internal/core"
	"idyll/internal/interconnect"
	"idyll/internal/memdef"
	"idyll/internal/pagemap"
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

// migration tracks one in-flight migration (or replication collapse). The
// host domain pools the records, and each record's continuations — the
// host-walk job, the walk's completion, the delayed invalidation send, the
// GPU→GPU copy chain and the finish — are bound once, when it is first
// made, so a migration round allocates nothing.
type migration struct {
	d        *Driver
	vpn      memdef.VPN
	to       int
	start    sim.VTime
	collapse bool

	pendingAcks  int
	hostWalkDone bool
	transferred  bool
	// walkTargets: the directory names the targets when the host walk is
	// done (the in-PTE directory). Otherwise targets holds the ones named
	// at the start until sendInvals sends them.
	walkTargets bool
	targets     uint64
	frame       memdef.PFN // the destination frame, once the transfer begins
	deferred    []fault
	// holds counts what still refers to the record: the FSM until it
	// completes, a pending sendInvals, and each invalidation message until
	// its ack lands (acks may land after the migration completed). The
	// last release returns the record to the pool.
	holds int

	release            func() // the host walker serving the walk
	walkJob            func(release func())
	walked, sendInvals func()
	finish             func()
	copy               gpuCopy
}

// gpuCopy is the command chain a host issues to move one page between GPUs:
// a control message orders the source to push the page over NVLink, and the
// destination reports the landed page back to the host, where done runs.
// Each hop runs in the domain that owns its link.
type gpuCopy struct {
	d          *Driver
	src, dst   int
	done       func()
	ctrl, data func() // the hops at the source and at the destination
}

// bind builds the chain's hops once.
func (c *gpuCopy) bind(d *Driver, done func()) {
	c.d, c.done = d, done
	c.ctrl = func() { c.d.net.GPUToGPU(c.src, c.dst, c.d.pageBytes(), c.data, nil) }
	c.data = func() { c.d.net.GPUToCPU(c.dst, memdef.ControlMsgBytes, c.done, nil) }
}

// start issues the chain from the host domain.
func (c *gpuCopy) start(src, dst int) {
	c.src, c.dst = src, dst
	c.d.net.CPUToGPU(src, memdef.ControlMsgBytes, c.ctrl, nil)
}

// faultWalk is one far fault's host page-table walk, pooled in the host
// domain with its walker job and completion bound once.
type faultWalk struct {
	d       *Driver
	f       fault
	release func()
	job     func(release func())
	walked  func()
}

// reply is one mapping reply on the wire, pooled in the host domain. Its
// two continuations run at the same arrival cycle: install at the GPU, in
// the GPU's domain, and retire at the host, which recycles the record. The
// install always runs first — in a multi-domain cluster every GPU domain
// executes a window before the host domain does, and a single domain runs
// same-cycle events in scheduling order, where the link schedules the
// delivery before the local completion — and retire panics if it did not.
type reply struct {
	d         *Driver
	gpu       int
	vpn       memdef.VPN
	pte       pagetable.PTE
	installed bool
	install   func()
	retire    func()
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
	batch          []fault // processBatch's scratch copy of one batch
	batchScheduled bool
	processBatchFn func() // processBatch, bound once
	migrating      pagemap.Map[memdef.VPN, *migration]
	replicas       map[memdef.VPN]map[int]memdef.PFN // reader GPU → its replica frame
	nextFrame      map[memdef.DeviceID]uint64
	// repliesInFlight counts mapping replies on the wire per page; a new
	// migration of that page must wait for them to land, or a late reply
	// would reinstall a translation the migration just killed. This is the
	// per-page operation serialization real UVM drivers enforce with
	// va_block locks.
	repliesInFlight pagemap.Map[memdef.VPN, int]
	queuedMigration pagemap.Map[memdef.VPN, queuedMig]
	// Free lists of the pooled host-domain records.
	invalFree []*invalMsg
	migFree   []*migration
	walkFree  []*faultWalk
	replyFree []*reply
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

// New builds a driver on the host synchronization domain. Its host page
// table is drawn from the cluster's recycler when that holds one.
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
		dom:         dom,
		engine:      engine,
		machine:     machine,
		scheme:      scheme,
		net:         net,
		st:          st,
		hostPT:      pagetable.NewFrom(dom.Cluster().Recycler(), machine.PageSize),
		hostWalkers: sim.NewResource(engine, machine.HostWalkers, -1),
		replicas:    make(map[memdef.VPN]map[int]memdef.PFN),
		nextFrame:   make(map[memdef.DeviceID]uint64),
	}
	d.processBatchFn = d.processBatch
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

// Release empties the host page table and files it with the cluster's
// recycler for the next table built to reuse, and leaves the driver without
// one, so any later use panics. Call it once, after the run's last read of
// d.
func (d *Driver) Release() {
	d.hostPT.Release(d.dom.Cluster().Recycler())
	d.hostPT = nil
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
func (d *Driver) Migrating(vpn memdef.VPN) bool { return d.migrating.Has(vpn) }

// InFlight reports the pages with an open migration, with mapping replies
// on the wire, and with a migration queued behind those replies.
func (d *Driver) InFlight() (migrations, replies, queued int) {
	return d.migrating.Len(), d.repliesInFlight.Len(), d.queuedMigration.Len()
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
		d.engine.Schedule(d.machine.FaultBatchWindow, d.processBatchFn)
	}
}

// processBatch drains up to FaultBatchSize faults into per-fault service.
func (d *Driver) processBatch() {
	n := len(d.faultQueue)
	if n > d.machine.FaultBatchSize {
		n = d.machine.FaultBatchSize
	}
	d.batch = append(d.batch[:0], d.faultQueue[:n]...)
	d.faultQueue = d.faultQueue[:copy(d.faultQueue, d.faultQueue[n:])]
	if len(d.faultQueue) > 0 {
		d.engine.Schedule(d.machine.FaultBatchWindow, d.processBatchFn)
	} else {
		d.batchScheduled = false
	}
	for _, f := range d.batch {
		d.serviceFault(f)
	}
}

// serviceFault runs one fault through the host walker and resolves it.
func (d *Driver) serviceFault(f fault) {
	if m, ok := d.migrating.Get(f.vpn); ok {
		m.deferred = append(m.deferred, f)
		return
	}
	var w *faultWalk
	if n := len(d.walkFree); n > 0 {
		w = d.walkFree[n-1]
		d.walkFree = d.walkFree[:n-1]
	} else {
		w = &faultWalk{d: d}
		w.job = func(release func()) {
			w.release = release
			w.d.engine.Schedule(w.d.hostWalkLatency()+w.d.machine.FaultFixedLatency, w.walked)
		}
		w.walked = w.done
	}
	w.f = f
	d.hostWalkers.Acquire(w.job)
}

// done finishes a fault's host walk: the walker and the record are
// released and the fault is resolved.
func (w *faultWalk) done() {
	d, f, release := w.d, w.f, w.release
	w.release = nil
	d.walkFree = append(d.walkFree, w)
	release()
	// A migration may have begun while this fault was walking.
	if m, ok := d.migrating.Get(f.vpn); ok {
		m.deferred = append(m.deferred, f)
		return
	}
	d.resolveFault(f)
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
	n, _ := d.repliesInFlight.Put(vpn)
	*n++
	// Two continuations at the same arrival cycle: the GPU installs the
	// mapping in its own domain, while the driver retires the in-flight
	// reply in the host domain (see reply).
	var x *reply
	if k := len(d.replyFree); k > 0 {
		x = d.replyFree[k-1]
		d.replyFree = d.replyFree[:k-1]
	} else {
		x = &reply{d: d}
		x.install = x.installAtGPU
		x.retire = x.retireAtHost
	}
	x.gpu, x.vpn, x.pte = gpu, vpn, pte
	d.net.CPUToGPU(gpu, memdef.ControlMsgBytes, x.install, x.retire)
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

// installAtGPU delivers the mapping in the GPU's domain.
func (x *reply) installAtGPU() {
	x.d.gpus[x.gpu].ReceiveMapping(x.vpn, x.pte)
	x.installed = true
}

// retireAtHost runs in the host domain once the GPU has installed the
// mapping: the record goes back to the free list and the reply retires.
func (x *reply) retireAtHost() {
	if !x.installed {
		panic("driver: mapping reply retired at the host before the GPU installed it")
	}
	d, vpn := x.d, x.vpn
	x.installed = false
	d.replyFree = append(d.replyFree, x)
	d.replyDelivered(vpn)
}

// replyDelivered retires one in-flight reply and releases a migration that
// was waiting for the page's wire traffic to quiesce.
func (d *Driver) replyDelivered(vpn memdef.VPN) {
	if n := d.repliesInFlight.Ptr(vpn); *n > 1 {
		*n--
		return
	}
	d.repliesInFlight.Delete(vpn)
	q, ok := d.queuedMigration.Get(vpn)
	if !ok {
		return
	}
	d.queuedMigration.Delete(vpn)
	// Re-validate: the page may already be where the requester wants it.
	pte, mapped := d.hostPT.Lookup(vpn)
	if busy := d.migrating.Has(vpn); busy || !mapped || !pte.Valid ||
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
		if d.migrating.Has(p) {
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
	if n, _ := d.repliesInFlight.Get(vpn); n > 0 {
		if !d.queuedMigration.Has(vpn) {
			d.queuedMigration.Set(vpn, queuedMig{to: to, collapse: collapse})
		}
		return
	}
	m := d.newMigration()
	m.vpn, m.to, m.start, m.collapse = vpn, to, d.engine.Now(), collapse
	d.migrating.Set(vpn, m)

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
		d.hostWalkers.Acquire(m.walkJob)
		return
	}

	if d.dir.RequiresHostWalkFirst() {
		// §6.2: the in-PTE directory must finish the host walk to learn the
		// access bits, delaying the send — a cost the paper accepts.
		m.walkTargets = true
		d.hostWalkers.Acquire(m.walkJob)
		return
	}
	// Baseline broadcasts before the walk completes; the VM-Cache lookup
	// runs in parallel with the walk and adds only its own latency.
	targets, extra := d.dir.Targets(vpn)
	m.targets = targets
	m.holds++
	d.engine.Schedule(extra, m.sendInvals)
	d.hostWalkers.Acquire(m.walkJob)
}

// newMigration takes a migration record from the free list, or makes one
// and binds its continuations.
func (d *Driver) newMigration() *migration {
	var m *migration
	if n := len(d.migFree); n > 0 {
		m = d.migFree[n-1]
		d.migFree = d.migFree[:n-1]
	} else {
		m = &migration{d: d}
		m.walkJob = func(release func()) {
			m.release = release
			m.d.engine.Schedule(m.d.hostWalkLatency(), m.walked)
		}
		m.walked = m.hostWalked
		m.sendInvals = func() {
			m.d.sendInvalidations(m, m.targets)
			m.unhold()
		}
		m.finish = func() { m.d.completeMigration(m) }
		m.copy.bind(d, m.finish)
	}
	m.holds = 1
	return m
}

// unhold drops one hold on m; the last returns it, reset, to the pool.
func (m *migration) unhold() {
	if m.holds--; m.holds > 0 {
		return
	}
	m.pendingAcks, m.hostWalkDone, m.transferred = 0, false, false
	m.walkTargets, m.targets, m.frame = false, 0, 0
	m.deferred = m.deferred[:0]
	m.d.migFree = append(m.d.migFree, m)
}

// hostWalked runs when the migration's host walk is done: it reads the
// directory's targets (when they wait for the walk), clears the directory
// and invalidates the host PTE.
func (m *migration) hostWalked() {
	d := m.d
	m.release()
	m.release = nil
	var targets uint64
	if m.walkTargets {
		targets, _ = d.dir.Targets(m.vpn)
	}
	d.dir.Clear(m.vpn)
	d.hostPT.Invalidate(m.vpn)
	m.hostWalkDone = true
	if m.walkTargets {
		d.sendInvalidations(m, targets)
	}
	d.maybeTransfer(m)
}

// sendInvalidations issues the invalidation round for a migration, one
// message per GPU in targets, in ascending GPU order.
func (d *Driver) sendInvalidations(m *migration, targets uint64) {
	n := bits.OnesCount64(targets)
	m.pendingAcks = n
	d.st.DirectoryTargeted += uint64(n)
	d.st.DirectoryFiltered += uint64(d.machine.NumGPUs - n)
	if n == 0 {
		d.maybeTransfer(m)
		return
	}
	for t := targets; t != 0; t &= t - 1 {
		g := bits.TrailingZeros64(t)
		d.net.CPUToGPU(g, memdef.ControlMsgBytes, d.newInvalMsg(m, g).deliver, nil)
	}
}

// newInvalMsg takes an invalidation message from the free list, or makes
// one. The message holds m until its ack lands.
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
	m.holds++
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
	m.unhold()
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
	m.frame = d.alloc(memdef.GPUDevice(m.to))
	switch {
	case from.IsCPU():
		// finish mutates driver state, so it rides the host-side completion
		// of the data push, not the GPU-side delivery.
		d.net.CPUToGPU(m.to, d.pageBytes(), nil, m.finish)
	case from == memdef.GPUDevice(m.to):
		// Collapse onto a GPU that already holds the bytes (it had a
		// replica or is the owner): no bulk transfer needed.
		d.engine.Schedule(1, m.finish)
	default:
		// GPU→GPU copy as the command chain real drivers issue.
		m.copy.start(from.GPUIndex(), m.to)
	}
}

// copyGPUToGPU moves one page from GPU src to GPU dst via a fresh command
// chain (see gpuCopy) and runs done in the host domain once the ack lands.
// Migrations reuse their own chain; replication copies come here.
func (d *Driver) copyGPUToGPU(src, dst int, done func()) {
	c := new(gpuCopy)
	c.bind(d, done)
	c.start(src, dst)
}

// completeMigration installs the new mapping, replays deferred faults and
// closes the FSM.
func (d *Driver) completeMigration(m *migration) {
	pte := pagetable.PTE{PFN: m.frame, Valid: true, Writable: true}
	d.hostPT.Map(m.vpn, pte)
	delete(d.replicas, m.vpn)
	d.dir.Record(m.vpn, m.to)
	d.st.MigrationTotal.Add(d.engine.Now() - m.start)
	d.migrating.Delete(m.vpn)
	d.sendMapping(m.to, m.vpn, pte)

	// Replay deferred faults, one per GPU (the MSHR guarantees one
	// outstanding fault per page per GPU, but on-touch defers its trigger
	// fault alongside later ones). Servicing a fault only queues its host
	// walk, so m.deferred stays put while this loop runs.
	seen := uint64(1) << uint(m.to)
	for _, f := range m.deferred {
		if bit := uint64(1) << uint(f.gpu); seen&bit == 0 {
			seen |= bit
			d.serviceFault(f)
		}
	}
	m.unhold()
}

// ---------------------------------------------------------------------------
// Page replication (§7.4): replicate on read, collapse on write.
// ---------------------------------------------------------------------------

// deferOrRetry parks a fault behind its page's migration; if the migration
// itself is queued behind in-flight replies, the fault retries shortly.
func (d *Driver) deferOrRetry(f fault) {
	if m, ok := d.migrating.Get(f.vpn); ok {
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
