// Package walker models the GPU Memory Management Unit (GMMU) of §3.1: a
// bounded page-walk queue, a shared page-walk cache (PWC) over the non-leaf
// page-table levels, and a pool of page-table walker threads. Demand
// translation walks, PTE-invalidation walks, and PTE-update walks all share
// these resources — that sharing is precisely the contention the paper
// quantifies (§5.2) and IDYLL removes.
package walker

import (
	"idyll/internal/cache"
	"idyll/internal/memdef"
	"idyll/internal/pagetable"
	"idyll/internal/sim"
	"idyll/internal/stats"
)

// Config sets the GMMU's geometry and timing (Table 2 defaults: 8 walker
// threads, 100 cycles per level, 128-entry PWC, 64-entry walk queue).
type Config struct {
	Threads       int
	QueueCapacity int
	LevelLatency  sim.VTime // memory access for one page-table level
	PWCEntries    int
	PWCWays       int
}

const (
	// pwcHitLatency is the PWC lookup time on a hit.
	pwcHitLatency sim.VTime = 1
	// retryDelay is how long a rejected (queue-full) request waits before
	// re-attempting enqueue.
	retryDelay sim.VTime = 8
)

// DefaultConfig returns Table 2's GMMU configuration.
func DefaultConfig() Config {
	return Config{
		Threads:       8,
		QueueCapacity: 64,
		LevelLatency:  100,
		PWCEntries:    128,
		PWCWays:       8,
	}
}

// pwcKey identifies a cached page-table entry: its level and the VPN prefix
// that selects it within the level.
type pwcKey struct {
	level  int
	prefix uint64
}

// GMMU is one GPU's memory-management unit.
type GMMU struct {
	engine  *sim.Engine
	pt      *pagetable.Table
	cfg     Config
	pwc     *cache.SetAssoc[pwcKey, struct{}]
	walkers *sim.Resource
	st      *stats.Sim
	// scratch is the walk-visit buffer reused across walks: visits are
	// consumed synchronously by walkCost before any other walk can start,
	// so one buffer per GMMU suffices and the walk path never allocates.
	scratch []pagetable.Visit
	// free holds finished walk records for reuse.
	free []*walk
}

// walkKind is the request class a walk record carries.
type walkKind uint8

const (
	demandWalk walkKind = iota
	invalWalk
	updateWalk
	batchWalk
)

// walk is one request from enqueue to completion. Records are pooled per
// GMMU and their continuations are bound once, when the record is first
// made, so queueing, retrying, walking and finishing a request schedules
// them without allocating a closure per walk.
type walk struct {
	g       *GMMU
	kind    walkKind
	vpn     memdef.VPN
	pte     pagetable.PTE // demand: the PTE found; update: the PTE to install
	ok      bool          // demand: whether a leaf entry existed
	release func()

	demandDone func(pagetable.PTE, bool)
	invalDone  func(bool)
	stale      func() bool
	done       func()
	// Batch state: the pages, the next one to apply, and the hooks of
	// InvalidateBatchFiltered.
	vpns []memdef.VPN
	i    int
	skip func(memdef.VPN) bool
	each func(memdef.VPN, bool)

	// run starts the walk on a walker thread, retry re-attempts a rejected
	// enqueue, and finish runs once the walk's latency has elapsed.
	run    func(release func())
	retry  func()
	finish func()
}

// newWalk takes a record from the free list, or makes one.
func (g *GMMU) newWalk(kind walkKind, vpn memdef.VPN) *walk {
	var w *walk
	if n := len(g.free); n > 0 {
		w = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		w = &walk{g: g}
		w.run = w.start
		w.retry = w.enqueue
		w.finish = w.complete
	}
	w.kind, w.vpn = kind, vpn
	return w
}

// recycle returns a finished record to the free list, dropping its
// references to caller state.
func (g *GMMU) recycle(w *walk) {
	w.release, w.demandDone, w.invalDone, w.stale, w.done = nil, nil, nil, nil, nil
	w.vpns, w.skip, w.each = nil, nil, nil
	g.free = append(g.free, w)
}

// New builds a GMMU over the GPU's local page table. st may be shared with
// other components of the same system.
func New(engine *sim.Engine, pt *pagetable.Table, cfg Config, st *stats.Sim) *GMMU {
	return NewFrom(nil, engine, pt, cfg, st)
}

// pwcRecycleKey files a released page-walk cache with a sim.Recycler by its
// sets and ways.
func pwcRecycleKey(sets, ways int) sim.RecycleKey {
	return sim.RecycleKey{Kind: "walker.PWC", Dims: [5]int{sets, ways}}
}

// NewFrom is New reusing a page-walk cache of the same geometry released
// into r, if r holds one. The GMMU owns pt from here on: Release files it
// with r too.
func NewFrom(r *sim.Recycler, engine *sim.Engine, pt *pagetable.Table, cfg Config, st *stats.Sim) *GMMU {
	sets := max(cfg.PWCEntries/cfg.PWCWays, 1)
	var pwc *cache.SetAssoc[pwcKey, struct{}]
	if v, ok := r.Take(pwcRecycleKey(sets, cfg.PWCWays)); ok {
		pwc = v.(*cache.SetAssoc[pwcKey, struct{}])
	} else {
		pwc = cache.New[pwcKey, struct{}](sets, cfg.PWCWays, func(k pwcKey) uint64 {
			return k.prefix*31 + uint64(k.level)
		})
	}
	return &GMMU{
		engine:  engine,
		pt:      pt,
		cfg:     cfg,
		pwc:     pwc,
		walkers: sim.NewResource(engine, cfg.Threads, cfg.QueueCapacity),
		st:      st,
	}
}

// Release empties the GMMU's page table and page-walk cache and files them
// with r for reuse, leaving the GMMU without them so any later use panics.
func (g *GMMU) Release(r *sim.Recycler) {
	g.pt.Release(r)
	g.pwc.Flush()
	r.Put(pwcRecycleKey(g.pwc.Sets(), g.pwc.Ways()), g.pwc)
	g.pt, g.pwc = nil, nil
}

// PageTable exposes the GPU's local page table.
func (g *GMMU) PageTable() *pagetable.Table { return g.pt }

// SetOnIdle installs a hook fired whenever a walker thread frees with an
// empty walk queue — IDYLL's trigger for draining the IRMB (§6.3).
func (g *GMMU) SetOnIdle(fn func()) { g.walkers.OnIdle = fn }

// Idle reports whether a walker is free and the queue is empty.
func (g *GMMU) Idle() bool { return g.walkers.Idle() }

// walkCost charges PWC lookups/updates for one walk of vpn and returns the
// total walk latency. The PWC caches non-leaf levels only; the leaf PTE
// access always goes to memory, so a batch of invalidations sharing all
// non-leaf levels costs one full walk plus one leaf access per extra page —
// the amortization lazy invalidation exploits (§6.3).
func (g *GMMU) walkCost(visits []pagetable.Visit) sim.VTime {
	var total sim.VTime
	for _, v := range visits {
		g.st.WalkerLevelVisits++
		if v.Level == 1 {
			total += g.cfg.LevelLatency
			continue
		}
		key := pwcKey{level: v.Level, prefix: v.Prefix}
		g.st.PWCLookups++
		if _, ok := g.pwc.Lookup(key); ok {
			g.st.PWCHits++
			total += pwcHitLatency
		} else {
			total += g.cfg.LevelLatency
			g.pwc.Insert(key, struct{}{})
		}
	}
	return total
}

// fullWalkCost is walkCost for a walk that must touch every level (PTE
// updates create the radix path as they descend).
func (g *GMMU) fullWalkCost(vpn memdef.VPN) sim.VTime {
	levels := g.pt.Levels()
	visits := g.scratch[:0]
	for i := 0; i < levels; i++ {
		level := levels - i
		visits = append(visits, pagetable.Visit{Level: level, Prefix: memdef.LevelPrefix(vpn, level)})
	}
	g.scratch = visits
	return g.walkCost(visits)
}

// enqueue submits the walk to the walk queue with automatic retry on
// backpressure.
func (w *walk) enqueue() {
	g := w.g
	if g.walkers.Acquire(w.run) {
		return
	}
	g.st.WalkQueueRejects++
	g.engine.Schedule(retryDelay, w.retry)
}

// start runs on a walker thread: it walks the table, charges the walk's
// latency, and schedules finish (a batch applies its pages in turn).
func (w *walk) start(release func()) {
	g := w.g
	w.release = release
	switch w.kind {
	case demandWalk:
		visits, pte, ok := g.pt.WalkInto(g.scratch, w.vpn)
		g.scratch = visits
		w.pte, w.ok = pte, ok
		g.engine.Schedule(g.walkCost(visits), w.finish)
	case invalWalk:
		visits, _, _ := g.pt.WalkInto(g.scratch, w.vpn)
		g.scratch = visits
		cost := g.walkCost(visits)
		g.st.InvalBusy += cost
		g.engine.Schedule(cost, w.finish)
	case updateWalk:
		g.engine.Schedule(g.fullWalkCost(w.vpn), w.finish)
	case batchWalk:
		w.step()
	}
}

// complete applies the walk's effect once its latency has elapsed, frees
// the walker thread and the record, then reports to the caller.
func (w *walk) complete() {
	g := w.g
	switch w.kind {
	case demandWalk:
		release, done, pte, ok := w.release, w.demandDone, w.pte, w.ok
		g.recycle(w)
		release()
		done(pte, ok)
	case invalWalk:
		wasValid := g.invalidate(w.vpn)
		release, done := w.release, w.invalDone
		g.recycle(w)
		release()
		done(wasValid)
	case updateWalk:
		if w.stale == nil || !w.stale() {
			g.pt.Map(w.vpn, w.pte)
		}
		release, done := w.release, w.done
		g.recycle(w)
		release()
		if done != nil {
			done()
		}
	case batchWalk:
		v := w.vpns[w.i]
		wasValid := g.invalidate(v)
		if w.each != nil {
			w.each(v, wasValid)
		}
		w.i++
		w.step()
	}
}

// invalidate clears vpn's PTE and counts whether the invalidation was
// necessary.
func (g *GMMU) invalidate(vpn memdef.VPN) bool {
	wasValid := g.pt.Invalidate(vpn)
	if wasValid {
		g.st.InvalNecessary++
	} else {
		g.st.InvalUnnecessary++
	}
	return wasValid
}

// Demand performs a demand translation walk for vpn. done receives the PTE
// found (possibly invalid — stale entries still terminate a full walk) and
// whether any leaf entry existed at all.
func (g *GMMU) Demand(vpn memdef.VPN, done func(pte pagetable.PTE, ok bool)) {
	g.st.WalkerDemand++
	w := g.newWalk(demandWalk, vpn)
	w.demandDone = done
	w.enqueue()
}

// Invalidate performs an invalidation walk for vpn (baseline behaviour: the
// GPU walks its table "even if [the PTE] were invalid to begin with", §2).
// done receives whether a valid PTE was actually invalidated.
func (g *GMMU) Invalidate(vpn memdef.VPN, done func(wasValid bool)) {
	g.st.WalkerInval++
	w := g.newWalk(invalWalk, vpn)
	w.invalDone = done
	w.enqueue()
}

// InvalidateBatch writes back a batch of buffered invalidations on a single
// walker thread, sequentially, so consecutive pages reuse the just-filled
// PWC entries (§6.3 "IRMB writeback"). done fires when the whole batch has
// been applied.
func (g *GMMU) InvalidateBatch(vpns []memdef.VPN, done func()) {
	g.InvalidateBatchFiltered(vpns, nil, nil, done)
}

// InvalidateBatchFiltered is InvalidateBatch with two hooks: skip (checked
// immediately before each page's walk) suppresses pages whose invalidation
// became obsolete — e.g. a fresh mapping arrived for them while the batch
// was queued, so invalidating would destroy the new translation (§6.3
// "update the PTE directly ... without invalidating it") — and each fires as
// every individual page's invalidation lands, so the caller can retire its
// stale-PTE marker at the precise cycle the page table becomes clean.
func (g *GMMU) InvalidateBatchFiltered(vpns []memdef.VPN, skip func(memdef.VPN) bool,
	each func(vpn memdef.VPN, wasValid bool), done func()) {
	if len(vpns) == 0 {
		if done != nil {
			g.engine.Schedule(0, done)
		}
		return
	}
	g.st.WalkerInval += uint64(len(vpns))
	w := g.newWalk(batchWalk, 0)
	w.vpns, w.i, w.skip, w.each, w.done = vpns, 0, skip, each, done
	w.enqueue()
}

// step walks the batch's next page that skip does not suppress and
// schedules its invalidation, or finishes the batch.
func (w *walk) step() {
	g := w.g
	for w.i < len(w.vpns) && w.skip != nil && w.skip(w.vpns[w.i]) {
		w.i++
	}
	if w.i >= len(w.vpns) {
		release, done := w.release, w.done
		g.recycle(w)
		release()
		if done != nil {
			done()
		}
		return
	}
	visits, _, _ := g.pt.WalkInto(g.scratch, w.vpns[w.i])
	g.scratch = visits
	cost := g.walkCost(visits)
	g.st.InvalBusy += cost
	g.engine.Schedule(cost, w.finish)
}

// UpdateUnless installs a translation via the walk queue — "the new mapping
// is directly inserted into the page table walk queue for PTE update"
// (§6.3). The staleness guard stale, if non-nil, is checked immediately
// before the mapping is written; a true result skips the install. The GPU
// uses it to cancel updates whose translation an invalidation has overtaken
// while the update sat in the walk queue — without the guard, a late update
// would resurrect a dead translation.
func (g *GMMU) UpdateUnless(vpn memdef.VPN, pte pagetable.PTE, stale func() bool, done func()) {
	g.st.WalkerUpdate++
	w := g.newWalk(updateWalk, vpn)
	w.pte, w.stale, w.done = pte, stale, done
	w.enqueue()
}
