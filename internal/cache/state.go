package cache

import "idyll/internal/checkpoint"

// Checkpoint support. A set-associative cache's observable behaviour depends
// on the exact per-set line order (true-LRU replacement), so SaveState and
// RestoreState carry it verbatim: sets in index order, ways MRU-first. The
// key/value encoding belongs to the embedding component, passed in as
// enc/dec callbacks, because only it knows the concrete K and V.

// SaveState writes the cache's geometry fingerprint and every resident line
// to w, using enc for each key/value pair. The cache keeps no event counts:
// its callers count probes into stats.Sim.
func (c *SetAssoc[K, V]) SaveState(w *checkpoint.Writer, enc func(*checkpoint.Writer, K, V)) {
	w.Int(c.sets)
	w.Int(c.ways)
	for s := range c.lines {
		w.U32(uint32(len(c.lines[s])))
		for i := range c.lines[s] {
			enc(w, c.lines[s][i].key, c.lines[s][i].val)
		}
	}
}

// RestoreState rebuilds the contents written by SaveState into c, which must
// have the same geometry (normally a freshly constructed cache from the same
// machine configuration). Line order — and therefore future replacement
// decisions — is restored exactly. Decode failures land in r's sticky error.
func (c *SetAssoc[K, V]) RestoreState(r *checkpoint.Reader, dec func(*checkpoint.Reader) (K, V)) {
	if sets := r.Int(); sets != c.sets {
		r.Failf("cache: %d sets in checkpoint, %d configured", sets, c.sets)
		return
	}
	if ways := r.Int(); ways != c.ways {
		r.Failf("cache: %d ways in checkpoint, %d configured", ways, c.ways)
		return
	}
	c.size = 0
	for s := range c.lines {
		n := int(r.U32())
		if r.Err() != nil {
			return
		}
		if n > c.ways {
			r.Failf("cache: set %d holds %d lines, only %d ways", s, n, c.ways)
			return
		}
		ln := c.lines[s][:0]
		if cap(ln) < n {
			ln = make([]line[K, V], 0, c.ways)
		}
		for i := 0; i < n; i++ {
			k, v := dec(r)
			ln = append(ln, line[K, V]{key: k, val: v})
		}
		c.lines[s] = ln
		c.size += n
	}
}
