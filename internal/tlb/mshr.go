package tlb

import (
	"idyll/internal/memdef"
	"idyll/internal/pagemap"
)

// MSHR is a miss-status holding register: it tracks virtual pages with an
// outstanding translation and merges later requests to the same page onto
// the existing entry. Per §6.3 this blocking is what guarantees that while a
// far fault for a page is in flight, no other request to that page reaches
// the GMMU — the property IDYLL's lazy invalidation relies on for
// correctness.
//
// W is the caller's waiter payload (typically a request continuation).
type MSHR[W any] struct {
	capacity int
	pending  pagemap.Map[memdef.VPN, []W]
	// free recycles waiter slices between misses (see Recycle), so the
	// per-miss Add path stops allocating once the MSHR has warmed up.
	free [][]W
}

// NewMSHR builds an MSHR with the given entry capacity (capacity <= 0 means
// unbounded).
func NewMSHR[W any](capacity int) *MSHR[W] {
	return &MSHR[W]{capacity: capacity}
}

// Outcome reports what happened to a Lookup-and-allocate attempt.
type Outcome int

const (
	// Allocated means vpn had no outstanding miss; a new entry now tracks it
	// and the caller must launch the translation.
	Allocated Outcome = iota
	// Merged means vpn already had an outstanding miss; the waiter was
	// appended and the caller must NOT launch another translation.
	Merged
	// Full means the MSHR has no free entry; the caller must retry later.
	Full
)

// Add registers waiter for vpn.
func (m *MSHR[W]) Add(vpn memdef.VPN, waiter W) Outcome {
	if ws := m.pending.Ptr(vpn); ws != nil {
		*ws = append(*ws, waiter)
		return Merged
	}
	if m.capacity > 0 && m.pending.Len() >= m.capacity {
		return Full
	}
	m.pending.Set(vpn, append(m.getSlice(), waiter))
	return Allocated
}

// getSlice takes an empty waiter slice from the free list, or makes one.
func (m *MSHR[W]) getSlice() []W {
	if n := len(m.free); n > 0 {
		ws := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		return ws
	}
	return make([]W, 0, 4)
}

// Recycle returns a slice obtained from Complete to the MSHR's free list.
// The caller must be done with it: its elements are cleared (so captured
// continuations are collectable) and its storage is handed to a future Add.
func (m *MSHR[W]) Recycle(ws []W) {
	if cap(ws) == 0 {
		return
	}
	clear(ws)
	m.free = append(m.free, ws[:0])
}

// Pending reports whether vpn has an outstanding miss.
func (m *MSHR[W]) Pending(vpn memdef.VPN) bool {
	return m.pending.Has(vpn)
}

// Complete removes vpn's entry and returns its waiters in arrival order.
func (m *MSHR[W]) Complete(vpn memdef.VPN) []W {
	ws, _ := m.pending.Get(vpn)
	m.pending.Delete(vpn)
	return ws
}

// Len reports the number of outstanding entries.
func (m *MSHR[W]) Len() int { return m.pending.Len() }
