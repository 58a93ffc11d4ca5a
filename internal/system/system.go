// Package system assembles a complete UVM-managed multi-GPU machine — GPUs,
// UVM driver, interconnect — for one (machine, scheme) design point, runs a
// workload trace on it, and returns the measurements every experiment is
// computed from.
package system

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"idyll/internal/config"
	"idyll/internal/driver"
	"idyll/internal/gpu"
	"idyll/internal/interconnect"
	"idyll/internal/memdef"
	"idyll/internal/pagemap"
	"idyll/internal/sim"
	"idyll/internal/sim/pdes"
	"idyll/internal/stats"
	"idyll/internal/workload"
)

// System is one assembled machine instance. Build with New, use once, then
// call Release (see there).
type System struct {
	Cluster *pdes.Cluster
	Machine config.Machine
	Scheme  config.Scheme
	Net     *interconnect.Network
	Driver  *driver.Driver
	GPUs    []*gpu.GPU
	// Stats is the run's single measurement collector. The driver and every
	// GPU write into it as events fire (the executor is serial, and every
	// write is an add, a max or a bitmask OR, so the order of writes cannot
	// change the result); a checkpoint carries it, and the end of the run
	// fills the run-level fields derived from post-run component state.
	Stats *stats.Sim

	// CheckTranslations enables the online correctness probe: every
	// translation handed to a data access is compared against the host page
	// table. Mismatches outside a migration window are hard errors;
	// mismatches while the page migrates (in-flight window) are counted.
	CheckTranslations bool
	// ColdStart disables the default affinity pre-placement of pages, so
	// every page begins in CPU memory and first-touch-migrates on demand.
	ColdStart bool
	// Placement, when non-nil, is the run's pre-placement, computed by Place
	// from the same trace and the machine's page size. It is read, never
	// written, so runs of one trace may share it; when nil, the run computes
	// its own.
	Placement      *Placement
	prepared       bool
	released       bool
	staleWindow    uint64
	hardViolations []string
}

// New builds a system for the given machine and scheme.
//
// Domain layout: one synchronization domain per GPU plus one for the
// host/driver, with lookahead derived from the interconnect — the cheapest
// link's propagation plus the one serialization cycle every message pays.
// Zero-latency-invalidation schemes invalidate all GPUs synchronously from
// the driver's event (lookahead zero), which conservative windows cannot
// express: those schemes collapse to a single shared domain, where the
// cluster degenerates to the plain serial engine.
func New(machine config.Machine, scheme config.Scheme) (*System, error) {
	return NewFrom(nil, machine, scheme)
}

// NewFrom is New building the machine from the storage of earlier systems
// released into r, where r holds storage of the right geometry: engines,
// TLBs, page-walk caches, page tables, data caches and per-page tables.
// Release files the machine's storage with r again. r must not be used by
// another goroutine until the system is released.
func NewFrom(r *sim.Recycler, machine config.Machine, scheme config.Scheme) (*System, error) {
	if err := machine.Validate(); err != nil {
		return nil, err
	}
	numDomains := machine.NumGPUs + 1
	lookahead := machine.NVLinkLatency
	if machine.PCIeLatency < lookahead {
		lookahead = machine.PCIeLatency
	}
	lookahead++
	if scheme.ZeroLatencyInval {
		numDomains, lookahead = 1, 1
	}
	cl := pdes.NewClusterFrom(r, numDomains, lookahead)
	hostDom := cl.Domain(numDomains - 1)
	gpuDom := func(i int) *pdes.Domain {
		if numDomains == 1 {
			return cl.Domain(0)
		}
		return cl.Domain(i)
	}
	st := new(stats.Sim)
	net := interconnect.NewNetwork(cl, interconnect.Config{
		NumGPUs:             machine.NumGPUs,
		NVLinkBytesPerCycle: machine.NVLinkBytesPerCycle,
		NVLinkLatency:       machine.NVLinkLatency,
		PCIeBytesPerCycle:   machine.PCIeBytesPerCycle,
		PCIeLatency:         machine.PCIeLatency,
	})
	drv := driver.New(hostDom, machine, scheme, net, st)
	s := &System{
		Cluster: cl,
		Machine: machine,
		Scheme:  scheme,
		Net:     net,
		Driver:  drv,
		Stats:   st,
	}
	gpus := make([]*gpu.GPU, machine.NumGPUs)
	ports := make([]driver.GPUPort, machine.NumGPUs)
	for i := range gpus {
		gpus[i] = gpu.New(gpuDom(i), i, machine, scheme, net, st)
		gpus[i].SetHost(drv)
		gpus[i].SetHostDomain(hostDom)
		ports[i] = gpus[i]
	}
	for i := range gpus {
		gpus[i].SetPeers(gpus)
	}
	drv.AttachGPUs(ports)
	s.GPUs = gpus
	return s, nil
}

// MustNew is New that panics on configuration errors; for tests/examples.
func MustNew(machine config.Machine, scheme config.Scheme) *System {
	s, err := New(machine, scheme)
	if err != nil {
		panic(err)
	}
	return s
}

// errReleased is what every run and checkpoint method of a released System
// returns.
var errReleased = errors.New("system: released; build a new System")

// Release empties the machine's storage and files it with the recycler the
// system was built from (see NewFrom; a system built by New has none, and
// its storage is left to the garbage collector): each domain's engine
// (unless a cancelled run left events pending), every GPU's TLBs, page-walk
// cache, local page table, data caches and per-page tables, and the host
// page table. Whoever builds a System calls Release once, after its last
// read of the System's components; the Stats a run returned stay valid.
// Afterwards every run and checkpoint method returns an error and the
// component fields are nil, so other use panics. Releasing twice does
// nothing.
//
// Reused storage is emptied to exactly the state a new component starts in;
// only capacity can be larger, and no result depends on capacity (see
// DESIGN.md "Storage lifecycle").
func (s *System) Release() {
	if s.released {
		return
	}
	s.released = true
	for _, g := range s.GPUs {
		g.Release()
	}
	s.Driver.Release()
	s.Cluster.Release()
	s.Cluster, s.Net, s.Driver, s.GPUs = nil, nil, nil, nil
}

// Run executes the trace to completion and returns the collected stats. It
// panics if the simulation deadlocks (a blocked CU that never retires would
// otherwise silently truncate the run).
func (s *System) Run(trace *workload.Trace) (*stats.Sim, error) {
	return s.RunCtx(context.Background(), trace)
}

// RunCtx is Run with cooperative cancellation: the cluster stops at the
// next barrier (or event batch, single-domain) once ctx is done, returning
// ctx.Err(). Cancellation cannot perturb results — a run either completes
// with output identical to Run's, or returns an error.
func (s *System) RunCtx(ctx context.Context, trace *workload.Trace) (*stats.Sim, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.prepare(trace); err != nil {
		return nil, err
	}
	for i, g := range s.GPUs {
		g.Run(trace.Accesses[i])
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.Cluster.RunCtx(ctx); err != nil {
		return nil, err
	}
	return s.finalize()
}

// prepare validates the trace against the machine, installs the optional
// correctness probe, pre-places pages, and configures the per-GPU workload
// shape. A System runs one trace, so a second prepare is an error: each
// pre-placement takes fresh frames from the driver's allocator, so placing
// the pages again would remap every one of them to new frames and shift
// every later allocation.
func (s *System) prepare(trace *workload.Trace) error {
	if s.released {
		return errReleased
	}
	if s.prepared {
		return fmt.Errorf("system: already prepared a run; a System runs one trace")
	}
	if trace.NumGPUs != s.Machine.NumGPUs {
		return fmt.Errorf("system: trace has %d GPUs, machine has %d",
			trace.NumGPUs, s.Machine.NumGPUs)
	}
	p := s.Placement
	if p != nil && (p.PageSize != s.Machine.PageSize || len(p.Pages) != s.Machine.NumGPUs) {
		return fmt.Errorf("system: placement for %d GPUs with %v pages, machine has %d with %v",
			len(p.Pages), p.PageSize, s.Machine.NumGPUs, s.Machine.PageSize)
	}
	s.prepared = true
	if s.CheckTranslations {
		s.installChecker()
	}
	if !s.ColdStart {
		if p == nil {
			p = Place(trace, s.Machine.PageSize)
		}
		s.install(p)
	}
	s.setShape(trace)
	return nil
}

// setShape configures the issue gap, instruction scaling, and counter
// threshold on every GPU from the trace's workload parameters. These fields
// are derived from (machine, trace) rather than checkpointed, so a resumed
// system re-applies them before running the remainder.
func (s *System) setShape(trace *workload.Trace) {
	for _, g := range s.GPUs {
		g.SetWorkloadShape(trace.Params.ComputeGap, trace.Params.InstrPerAccess)
		if f := trace.Params.ThresholdFactor; f > 1 {
			g.SetCounterThreshold(s.Machine.AccessCounterThreshold * f)
		}
	}
}

// finalize checks for deadlock and coherence violations and fills the
// run-level fields. It assigns every field it derives and never adds to one:
// the collector is live, checkpointed state, so an accumulation here would
// count whatever the collector already held a second time.
func (s *System) finalize() (*stats.Sim, error) {
	remaining := 0
	var execEnd, drainedAt sim.VTime
	for _, g := range s.GPUs {
		if !g.Finished() {
			remaining++
		} else if g.DoneAt() > execEnd {
			execEnd = g.DoneAt()
		}
	}
	for i := 0; i < s.Cluster.NumDomains(); i++ {
		if now := s.Cluster.Domain(i).Now(); now > drainedAt {
			drainedAt = now
		}
	}
	if remaining != 0 {
		return nil, fmt.Errorf("system: deadlock — %d GPUs never finished (events drained at %d)",
			remaining, drainedAt)
	}
	if len(s.hardViolations) > 0 {
		return nil, fmt.Errorf("system: %d translation-coherence violations, first: %s",
			len(s.hardViolations), s.hardViolations[0])
	}
	s.Stats.ExecCycles = execEnd
	s.Stats.NVLinkBytes, s.Stats.PCIeBytes = s.Net.TotalBytes()
	es := s.Cluster.EngineStats()
	s.Stats.EngineEvents = es.Fired
	s.Stats.EngineRingScheduled = es.RingScheduled
	s.Stats.EngineFarScheduled = es.FarScheduled
	s.Stats.EngineMigrated = es.Migrated
	s.Stats.EnginePoolHits = es.PoolHits
	if vm := s.Driver.VMDirectory(); vm != nil {
		s.Stats.VMCacheLookups = vm.Lookups()
		s.Stats.VMCacheHits = vm.Hits()
	}
	return s.Stats, nil
}

// Placement is the affinity pre-placement of one trace's pages: every page
// starts on the GPU that accesses it most, modelling the staged data
// distribution real multi-GPU applications perform before kernel launch.
// Runs then measure steady-state sharing behaviour: migrations happen only
// when access counters show a page is genuinely contended, which is the
// regime the paper studies. A Placement holds no pointers into the trace
// and is never modified after Place returns, so concurrent runs of one
// trace share it.
type Placement struct {
	PageSize memdef.PageSize
	// VPNs lists every page the trace touches, in ascending order.
	VPNs []memdef.VPN
	// Owners[i] is the GPU that accesses VPNs[i] most; ties go to the
	// lowest GPU.
	Owners []uint8
	// Pages[g] counts the pages GPU g owns.
	Pages []int
}

// Place computes the affinity placement of trace's pages at pageSize.
func Place(trace *workload.Trace, pageSize memdef.PageSize) *Placement {
	// Page i of first touch owns counts[i*n : (i+1)*n], its per-GPU access
	// counts.
	n := trace.NumGPUs
	var index pagemap.Map[memdef.VPN, int]
	var vpns []memdef.VPN
	var counts []int
	for g := range trace.Accesses {
		for _, cu := range trace.Accesses[g] {
			for _, a := range cu {
				vpn := memdef.PageNum(a.VA, pageSize)
				i, added := index.Put(vpn)
				if added {
					*i = len(vpns)
					vpns = append(vpns, vpn)
					for k := 0; k < n; k++ {
						counts = append(counts, 0)
					}
				}
				counts[*i*n+g]++
			}
		}
	}
	slices.Sort(vpns)
	p := &Placement{
		PageSize: pageSize,
		VPNs:     vpns,
		Owners:   make([]uint8, len(vpns)),
		Pages:    make([]int, n),
	}
	for k, vpn := range vpns {
		i, _ := index.Get(vpn)
		c := counts[i*n : (i+1)*n]
		owner := 0
		for g := 1; g < len(c); g++ {
			if c[g] > c[owner] {
				owner = g
			}
		}
		p.Owners[k] = uint8(owner)
		p.Pages[owner]++
	}
	return p
}

// install maps every page of p on its owner, in ascending VPN order. The
// host table and each GPU's table are sized for their pages first, so each
// is allocated once.
func (s *System) install(p *Placement) {
	s.Driver.HostPageTable().Reserve(len(p.VPNs))
	for g, n := range p.Pages {
		s.GPUs[g].GMMU().PageTable().Reserve(n)
	}
	for i, vpn := range p.VPNs {
		owner := int(p.Owners[i])
		pte := s.Driver.Preinstall(vpn, owner)
		s.GPUs[owner].Preinstall(vpn, pte)
	}
}

// installChecker wires the per-access coherence probe into each GPU.
func (s *System) installChecker() {
	for _, g := range s.GPUs {
		g.OnTranslated = func(gpuID int, vpn memdef.VPN, pfn memdef.PFN) {
			if s.Driver.Migrating(vpn) {
				// Page mid-migration: accesses may legitimately use the
				// outgoing mapping until the invalidation round lands.
				return
			}
			pte, ok := s.Driver.HostPageTable().Lookup(vpn)
			if !ok || !pte.Valid {
				// First-touch in flight: the faulting GPU's mapping reply
				// raced ahead of another GPU's view. Benign.
				return
			}
			if pfn.Device() == pte.PFN.Device() {
				return
			}
			// Replication maps read-only replicas to reader-local frames
			// while the host names the single owner — by design.
			if s.Scheme.Policy == config.Replication {
				return
			}
			// The reply that installed the current host mapping may still
			// be in flight to this GPU; accesses translated through the
			// previous mapping form the bounded in-flight window that
			// exists in real systems too. Count them; the caller asserts
			// the fraction stays negligible via StaleWindowFraction.
			s.staleWindow++
		}
	}
}

// StaleWindowFraction reports the fraction of accesses that translated
// through an in-flight-stale mapping; expected to be ≪1%.
func (s *System) StaleWindowFraction() float64 {
	if s.Stats.Accesses == 0 {
		return 0
	}
	return float64(s.staleWindow) / float64(s.Stats.Accesses)
}
