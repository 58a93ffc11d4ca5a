// Package datapath models the data side of each GPU once translation has
// succeeded: per-CU L1 vector caches, the shared L2 cache, and local DRAM
// (Table 2: 16 KB/4-way L1V$, 256 KB/16-way L2$, 4 GB device memory).
//
// Remote data is not modelled here: per §3.2 it is fetched from the remote
// GPU at cacheline granularity and bypasses the local cache hierarchy, so
// the GPU model charges it as interconnect round-trip + remote DRAM latency.
package datapath

import (
	"math/bits"

	"idyll/internal/cache"
	"idyll/internal/memdef"
	"idyll/internal/pagemap"
	"idyll/internal/sim"
	"idyll/internal/stats"
)

// Config sets cache geometry and latency.
type Config struct {
	L1Bytes      int
	L1Ways       int
	L1HitLatency sim.VTime
	L2Bytes      int
	L2Ways       int
	L2HitLatency sim.VTime
	DRAMLatency  sim.VTime
	// PageBytes is the granule InvalidatePage flushes: the machine's page
	// size. It must be a power of two no smaller than a cacheline
	// (memdef.CachelineBytes, the caches' line size).
	PageBytes int
}

// DefaultConfig returns the Table 2 data-path configuration.
func DefaultConfig() Config {
	return Config{
		L1Bytes: 16 << 10, L1Ways: 4, L1HitLatency: 4,
		L2Bytes: 256 << 10, L2Ways: 16, L2HitLatency: 30,
		DRAMLatency: 200,
		PageBytes:   int(memdef.Page4K.Bytes()),
	}
}

type lineState struct {
	dirty bool
}

// pageLines is a page's residency record: how many of its lines the L2 and
// every L1 hold together, which of them the L2 holds (exact), and which any
// L1 has held since the record was created (a superset of what the L1s hold
// now, since L1 evictions leave it alone). Bit i stands for the page's i'th
// line; the masks are used only when a page has at most 64 lines.
type pageLines struct {
	n      int32
	l2, l1 uint64
}

// Hierarchy is one GPU's local data-cache hierarchy.
type Hierarchy struct {
	engine *sim.Engine
	cfg    Config
	l1     []*cache.SetAssoc[uint64, lineState] // per CU
	l2     *cache.SetAssoc[uint64, lineState]
	st     *stats.Sim

	// resident holds, per page number, the page's pageLines record. It is
	// kept on fill and eviction, so InvalidatePage can skip a page with
	// nothing cached in O(1), invalidate only the lines the masks mark, and
	// stop once every resident line is gone. Pages with no resident line
	// have no entry. Derived from the caches' contents, it is rebuilt
	// rather than serialized on RestoreState.
	resident pagemap.Map[uint64, pageLines]

	lineShift     uint
	pageLineShift uint // log2(lines per page)
	masks         bool // pages have at most 64 lines: pageLines masks are kept
}

// log2 returns the exponent of a power of two.
func log2(n int) uint {
	shift := uint(0)
	for 1<<shift < n {
		shift++
	}
	return shift
}

// New builds the hierarchy for numCUs compute units.
func New(engine *sim.Engine, numCUs int, cfg Config, st *stats.Sim) *Hierarchy {
	return NewFrom(nil, engine, numCUs, cfg, st)
}

// NewFrom is New reusing the caches and residency table of a hierarchy of
// the same geometry released into r, if r holds one.
func NewFrom(r *sim.Recycler, engine *sim.Engine, numCUs int, cfg Config, st *stats.Sim) *Hierarchy {
	shift := log2(memdef.CachelineBytes)
	if cfg.PageBytes < memdef.CachelineBytes {
		panic("datapath: page smaller than a cacheline")
	}
	var h *Hierarchy
	if v, ok := r.Take(recycleKey(numCUs, cfg)); ok {
		h = v.(*Hierarchy)
	} else {
		idx := func(k uint64) uint64 { return k }
		l1Sets, l2Sets := cfg.sets()
		h = &Hierarchy{}
		h.l1 = make([]*cache.SetAssoc[uint64, lineState], numCUs)
		for i := range h.l1 {
			h.l1[i] = cache.New[uint64, lineState](l1Sets, cfg.L1Ways, idx)
		}
		h.l2 = cache.New[uint64, lineState](l2Sets, cfg.L2Ways, idx)
	}
	h.engine, h.cfg, h.st = engine, cfg, st
	h.lineShift = shift
	h.pageLineShift = log2(cfg.PageBytes) - shift
	h.masks = h.pageLineShift <= 6
	return h
}

// sets reports the L1 and L2 caches' set counts.
func (c Config) sets() (l1, l2 int) {
	return max(c.L1Bytes/memdef.CachelineBytes/c.L1Ways, 1), max(c.L2Bytes/memdef.CachelineBytes/c.L2Ways, 1)
}

// recycleKey files a hierarchy with a sim.Recycler: the CU count and both
// caches' shapes fix its storage.
func recycleKey(cus int, cfg Config) sim.RecycleKey {
	l1Sets, l2Sets := cfg.sets()
	return sim.RecycleKey{Kind: "datapath.Hierarchy", Dims: [5]int{cus, l1Sets, cfg.L1Ways, l2Sets, cfg.L2Ways}}
}

// Release empties h to the state a new hierarchy starts in and files it with
// r for NewFrom to reuse. The caller must not touch h afterwards.
func (h *Hierarchy) Release(r *sim.Recycler) {
	for _, c := range h.l1 {
		c.Flush()
	}
	h.l2.Flush()
	h.resident.Clear()
	h.engine, h.st = nil, nil
	r.Put(recycleKey(len(h.l1), h.cfg), h)
}

// line returns the cacheline key of a physical address.
func (h *Hierarchy) line(pa memdef.PAddr) uint64 { return uint64(pa) >> h.lineShift }

// bit is ln's bit in its page's pageLines masks, or 0 when masks are off.
func (h *Hierarchy) bit(ln uint64) uint64 {
	if !h.masks {
		return 0
	}
	return 1 << (ln & (1<<h.pageLineShift - 1))
}

// fill inserts a line known to be absent from c and uncounts the line it
// evicts, if any. The caller counts the new line, once per cache it fills.
func (h *Hierarchy) fill(c *cache.SetAssoc[uint64, lineState], ln uint64, st lineState) {
	if victim, _, evicted := c.Insert(ln, st); evicted {
		page := victim >> h.pageLineShift
		r := h.resident.Ptr(page)
		if r.n--; r.n == 0 {
			h.resident.Delete(page)
			return
		}
		if c == h.l2 {
			r.l2 &^= h.bit(victim)
		}
	}
}

// Access performs a local data access by cu to physical address pa and
// invokes done when the data is available (write completion is acknowledged
// at the same point; stores are modelled write-allocate/write-back).
func (h *Hierarchy) Access(cu int, pa memdef.PAddr, write bool, done func()) {
	ln := h.line(pa)
	l1 := h.l1[cu]
	h.st.L1DLookups++
	if st, ok := l1.Lookup(ln); ok {
		h.st.L1DHits++
		if write && !st.dirty {
			l1.Insert(ln, lineState{dirty: true})
		}
		h.engine.Schedule(h.cfg.L1HitLatency, done)
		return
	}
	// r is valid only until the next Put or Delete on resident, so both
	// paths finish updating it before fill, which may delete a victim's
	// record.
	page, bit := ln>>h.pageLineShift, h.bit(ln)
	r, _ := h.resident.Put(page)
	h.st.L2DLookups++
	if _, ok := h.l2.Lookup(ln); ok {
		h.st.L2DHits++
		r.n++
		r.l1 |= bit
		h.fill(l1, ln, lineState{dirty: write})
		h.engine.Schedule(h.cfg.L1HitLatency+h.cfg.L2HitLatency, done)
		return
	}
	// Miss everywhere: DRAM fill. Write-back traffic of dirty victims is
	// absorbed in DRAMLatency; the experiments are translation-bound.
	r.n += 2
	r.l2 |= bit
	r.l1 |= bit
	h.fill(h.l2, ln, lineState{})
	h.fill(l1, ln, lineState{dirty: write})
	h.engine.Schedule(h.cfg.L1HitLatency+h.cfg.L2HitLatency+h.cfg.DRAMLatency, done)
}

// InvalidatePage drops every cached line of the page containing pa, called
// when a page migrates away so stale data cannot be read locally, and
// reports how many lines it removed. A page with no resident line costs one
// table lookup. Otherwise the L2 drops exactly the lines its mask marks, then
// each L1 the lines any L1 has held, stopping once the page's last resident
// line is gone. Pages of more than 64 lines keep no masks and sweep the sets
// the page indexes to instead.
func (h *Hierarchy) InvalidatePage(pa memdef.PAddr) int {
	page := h.line(pa) >> h.pageLineShift
	r, ok := h.resident.Get(page)
	if !ok {
		return 0
	}
	h.resident.Delete(page)
	want := int(r.n)
	lo := page << h.pageLineShift
	if !h.masks {
		hi := lo | (1<<h.pageLineShift - 1)
		n := cache.InvalidateRange(h.l2, lo, hi)
		for _, l1 := range h.l1 {
			if n == want {
				break
			}
			n += cache.InvalidateRange(l1, lo, hi)
		}
		return n
	}
	n := invalidateMasked(h.l2, lo, r.l2, want)
	for _, l1 := range h.l1 {
		if n == want {
			break
		}
		n += invalidateMasked(l1, lo, r.l1, want-n)
	}
	return n
}

// invalidateMasked removes from c the lines lo+i for each bit i set in mask,
// stopping once limit lines are gone, and reports how many it removed.
func invalidateMasked(c *cache.SetAssoc[uint64, lineState], lo, mask uint64, limit int) int {
	n := 0
	for ; mask != 0 && n < limit; mask &= mask - 1 {
		if c.Invalidate(lo + uint64(bits.TrailingZeros64(mask))) {
			n++
		}
	}
	return n
}
