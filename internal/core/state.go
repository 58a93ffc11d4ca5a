package core

import (
	"idyll/internal/checkpoint"
	"idyll/internal/memdef"
	"sort"
)

// Checkpoint support. The IRMB carries its merged entries verbatim in MRU
// order (both the LRU replacement and the offset insertion order are
// behaviour-visible); its event counts live in stats.Sim. Directories:
// broadcast is stateless; the in-PTE directory's state lives wholly in the
// host page table's Aux bits (serialized with that table by the driver); the
// VM-Table directory owns a map, a VM-Cache and its lookup counters.

// SaveState writes the IRMB's entries (MRU first, offsets in insertion
// order) to w.
func (b *IRMB) SaveState(w *checkpoint.Writer) {
	w.Int(b.maxEntries)
	w.Int(b.offsetsPerEntry)
	w.U32(uint32(len(b.entries)))
	for _, e := range b.entries {
		w.U64(e.base)
		w.U32(uint32(len(e.offsets)))
		for _, o := range e.offsets {
			w.U16(o)
		}
	}
}

// RestoreState reads the state written by SaveState into b, which must be an
// empty IRMB of the same geometry.
func (b *IRMB) RestoreState(r *checkpoint.Reader) {
	if n := r.Int(); n != b.maxEntries {
		r.Failf("core: IRMB with %d bases in checkpoint, %d configured", n, b.maxEntries)
		return
	}
	if n := r.Int(); n != b.offsetsPerEntry {
		r.Failf("core: IRMB with %d offsets/entry in checkpoint, %d configured", n, b.offsetsPerEntry)
		return
	}
	n := r.Count(12)
	if n > b.maxEntries {
		r.Failf("core: IRMB checkpoint holds %d entries, max %d", n, b.maxEntries)
		return
	}
	b.entries = b.entries[:0]
	for i := 0; i < n; i++ {
		e := &mergedEntry{base: r.U64()}
		no := r.Count(2)
		if no > b.offsetsPerEntry {
			r.Failf("core: IRMB entry holds %d offsets, max %d", no, b.offsetsPerEntry)
			return
		}
		for j := 0; j < no; j++ {
			e.offsets = append(e.offsets, r.U16())
		}
		b.entries = append(b.entries, e)
	}
}

// SaveState writes the VM-Table (sorted by VPN), the VM-Cache contents in
// recency order, and the lookup counters.
func (d *VMDirectory) SaveState(w *checkpoint.Writer) {
	vpns := make([]memdef.VPN, 0, len(d.table))
	for vpn := range d.table {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	w.U32(uint32(len(vpns)))
	for _, vpn := range vpns {
		w.U64(uint64(vpn))
		w.U32(d.table[vpn])
	}
	d.vmCache.SaveState(w, func(w *checkpoint.Writer, vpn memdef.VPN, mask uint32) {
		w.U64(uint64(vpn))
		w.U32(mask)
	})
	w.U64(d.lookups)
	w.U64(d.hits)
}

// RestoreState reads the state written by SaveState into d, which must be
// freshly constructed.
func (d *VMDirectory) RestoreState(r *checkpoint.Reader) {
	n := r.Count(12)
	clear(d.table)
	for i := 0; i < n; i++ {
		vpn := memdef.VPN(r.U64())
		d.table[vpn] = r.U32()
	}
	d.vmCache.RestoreState(r, func(r *checkpoint.Reader) (memdef.VPN, uint32) {
		vpn := memdef.VPN(r.U64())
		return vpn, r.U32()
	})
	d.lookups = r.U64()
	d.hits = r.U64()
}
