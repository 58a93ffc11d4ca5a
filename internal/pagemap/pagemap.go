// Package pagemap is the simulator's per-page hash table: a map keyed by a
// page number (any ~uint64 type) with open addressing, linear probing, a
// Fibonacci hash, backward-shift deletion and growth at 3/4 load.
//
// Every per-page structure on the hot path — the page tables and their
// interior prefix sets, the data caches' residency records, the MSHR, the
// GPU's shootdown fence, invalidation epochs and IRMB receipts, and the
// driver's migration FSM — is one of these. Against a Go map it hashes with
// one multiply, keeps keys and values inline in one slice (a table whose
// value type holds no pointers is never scanned by the GC), and hands out a
// pointer to a value so a read-modify-write costs one probe.
//
// Each slot has a control byte: 0 when the slot is empty, otherwise 0x80
// plus seven bits of its key's hash. A probe reads eight control bytes at
// once and compares keys only where the byte matches, so a lookup of an
// absent key usually ends after one word test instead of a key compare per
// slot of the probe run.
//
// Iteration order (Range) is the table's slot order: deterministic, since
// it depends only on the sequence of Puts and Deletes, but not sorted and
// not stable across that history. Callers whose output depends on order
// (checkpoints) use SortedKeys.
package pagemap

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

const (
	// fib is 2^64 divided by the golden ratio: the Fibonacci-hashing
	// multiplier. Its top bits spread consecutive page numbers across the
	// table.
	fib = 0x9e3779b97f4a7c15
	// group is how many control bytes a probe reads at once.
	group = 8
	// minSlots is the table size of the first allocation.
	minSlots = group
	lsb      = 0x0101010101010101
	msb      = 0x8080808080808080
)

type slot[K ~uint64, V any] struct {
	key K
	val V
}

// Map is an open-addressing hash table from page numbers to V. The zero
// value is an empty map ready to use; the slot array is allocated on the
// first Put. A Map must not be copied after first use.
type Map[K ~uint64, V any] struct {
	// ctrl holds each slot's control byte, then a copy of the first
	// group-1 bytes so that a probe may read a whole group from any slot.
	ctrl  []uint8
	slots []slot[K, V] // power-of-two length
	shift uint         // 64 - log2(len(slots))
	n     int
}

// Len reports the number of keys present.
func (m *Map[K, V]) Len() int { return m.n }

// hash returns k's preferred slot and its control byte.
func (m *Map[K, V]) hash(k K) (home uint64, tag uint8) {
	h := uint64(k) * fib
	return h >> m.shift, uint8(h>>24) | 0x80
}

// home is k's preferred slot.
func (m *Map[K, V]) home(k K) uint64 { return uint64(k) * fib >> m.shift }

// zeroBytes sets the top bit of the lowest zero byte of x, and possibly of
// bytes above it, which callers ignore or verify.
func zeroBytes(x uint64) uint64 { return (x - lsb) &^ x & msb }

// setCtrl writes slot i's control byte and its mirror.
func (m *Map[K, V]) setCtrl(i uint64, c uint8) {
	m.ctrl[i] = c
	if i < group-1 {
		m.ctrl[uint64(len(m.slots))+i] = c
	}
}

// probe looks k up in a table with slots. It returns k's slot and true, or
// the first empty slot of k's probe run and false.
func (m *Map[K, V]) probe(k K) (uint64, bool) {
	mask := uint64(len(m.slots) - 1)
	i, tag := m.hash(k)
	for {
		w := binary.LittleEndian.Uint64(m.ctrl[i:])
		for b := zeroBytes(w ^ lsb*uint64(tag)); b != 0; b &= b - 1 {
			if j := (i + uint64(bits.TrailingZeros64(b))/8) & mask; m.slots[j].key == k {
				return j, true
			}
		}
		if e := zeroBytes(w); e != 0 {
			return (i + uint64(bits.TrailingZeros64(e))/8) & mask, false
		}
		i = (i + group) & mask
	}
}

// Ptr returns a pointer to k's value, or nil if k is absent. The pointer
// is valid until the next Put or Delete on m.
func (m *Map[K, V]) Ptr(k K) *V {
	if m.n == 0 {
		return nil
	}
	if i, ok := m.probe(k); ok {
		return &m.slots[i].val
	}
	return nil
}

// Get returns k's value and whether k is present.
func (m *Map[K, V]) Get(k K) (V, bool) {
	if p := m.Ptr(k); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// Has reports whether k is present.
func (m *Map[K, V]) Has(k K) bool { return m.Ptr(k) != nil }

// Put returns a pointer to k's value, inserting k with the zero value if it
// is absent; added reports whether it did. The pointer is valid only until
// the next Put or Delete on m: either may move every value in the table
// (growth rehashes it, and a delete shifts later entries back). Finish
// writing through the pointer before the next mutation.
func (m *Map[K, V]) Put(k K) (p *V, added bool) {
	if len(m.slots) > 0 {
		i, ok := m.probe(k)
		if ok {
			return &m.slots[i].val, false
		}
		if 4*(m.n+1) <= 3*len(m.slots) {
			return m.claim(i, k), true
		}
	}
	m.grow()
	i, _ := m.probe(k)
	return m.claim(i, k), true
}

// claim stores k in the empty slot i and returns its value.
func (m *Map[K, V]) claim(i uint64, k K) *V {
	_, tag := m.hash(k)
	m.setCtrl(i, tag)
	m.slots[i].key = k
	m.n++
	return &m.slots[i].val
}

// Set stores v under k.
func (m *Map[K, V]) Set(k K, v V) {
	p, _ := m.Put(k)
	*p = v
}

// grow doubles the slot array (or makes the first one) and rehashes.
func (m *Map[K, V]) grow() {
	size := 2 * len(m.slots)
	if size < minSlots {
		size = minSlots
	}
	m.resize(size)
}

// Reserve sizes the table to hold n keys without growing, so a caller that
// knows its final size pays for one slot array instead of a chain of
// doublings. It never shrinks the table, and Reserve(0) allocates nothing.
func (m *Map[K, V]) Reserve(n int) {
	if n <= 0 {
		return
	}
	size := minSlots
	for 4*n > 3*size {
		size *= 2
	}
	if size > len(m.slots) {
		m.resize(size)
	}
}

// resize replaces the slot array with one of size slots (a power of two
// large enough for every key) and rehashes.
func (m *Map[K, V]) resize(size int) {
	oldCtrl, old := m.ctrl, m.slots
	m.ctrl = make([]uint8, size+group-1)
	m.slots = make([]slot[K, V], size)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	m.n = 0
	for i, s := range old {
		if oldCtrl[i] != 0 {
			j, _ := m.probe(s.key)
			*m.claim(j, s.key) = s.val
		}
	}
}

// Delete removes k and reports whether it was present. Entries after k's
// slot in its probe run shift back, so the table never holds tombstones.
func (m *Map[K, V]) Delete(k K) bool {
	if m.n == 0 {
		return false
	}
	i, ok := m.probe(k)
	if !ok {
		return false
	}
	mask := uint64(len(m.slots) - 1)
	for j := (i + 1) & mask; m.ctrl[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically after i, within (i, j].
		if (j-m.home(m.slots[j].key))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			m.setCtrl(i, m.ctrl[j])
			i = j
		}
	}
	m.slots[i] = slot[K, V]{}
	m.setCtrl(i, 0)
	m.n--
	return true
}

// Clear removes every key, keeping the slot array for reuse.
func (m *Map[K, V]) Clear() {
	clear(m.ctrl)
	clear(m.slots)
	m.n = 0
}

// Range calls fn for each key and value in slot order until fn returns
// false. fn must not Put or Delete on m.
func (m *Map[K, V]) Range(fn func(K, V) bool) {
	for i := range m.slots {
		if s := &m.slots[i]; m.ctrl[i] != 0 && !fn(s.key, s.val) {
			return
		}
	}
}

// SortedKeys returns every key in ascending order, for callers whose output
// must not depend on the table's layout.
func (m *Map[K, V]) SortedKeys() []K {
	keys := make([]K, 0, m.n)
	for i := range m.slots {
		if m.ctrl[i] != 0 {
			keys = append(keys, m.slots[i].key)
		}
	}
	slices.Sort(keys)
	return keys
}
