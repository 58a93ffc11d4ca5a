package pagemap

import (
	"math/rand"
	"testing"
)

// checkAgainst asserts m holds exactly ref, that Range visits each live key
// exactly once, that every slotted key is reachable from its home slot
// without crossing an empty slot (the linear-probing invariant backward
// shifts must keep), and that the control bytes and their mirror agree with
// the slots.
func checkAgainst(t *testing.T, m *Map[uint64, uint64], ref map[uint64]uint64) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := m.Get(k); !ok || got != want {
			t.Fatalf("Get(%#x) = %d,%v; want %d,true", k, got, ok, want)
		}
	}
	seen := make(map[uint64]bool, len(ref))
	m.Range(func(k, v uint64) bool {
		if seen[k] {
			t.Fatalf("Range visited %#x twice", k)
		}
		seen[k] = true
		if want, ok := ref[k]; !ok || v != want {
			t.Fatalf("Range(%#x) = %d; ref has %d,%v", k, v, want, ok)
		}
		return true
	})
	if len(seen) != len(ref) {
		t.Fatalf("Range visited %d keys, want %d", len(seen), len(ref))
	}
	mask := uint64(len(m.slots) - 1)
	for i, s := range m.slots {
		if i < group-1 && m.ctrl[len(m.slots)+i] != m.ctrl[i] {
			t.Fatalf("control byte %d not mirrored", i)
		}
		if m.ctrl[i] == 0 {
			continue
		}
		if _, tag := m.hash(s.key); m.ctrl[i] != tag {
			t.Fatalf("slot %d: control byte %#x, key %#x hashes to %#x", i, m.ctrl[i], s.key, tag)
		}
		for j := m.home(s.key); j != uint64(i); j = (j + 1) & mask {
			if m.ctrl[j] == 0 {
				t.Fatalf("key %#x at slot %d unreachable: empty slot %d after its home", s.key, i, j)
			}
		}
	}
	if 4*m.n > 3*len(m.slots) {
		t.Fatalf("load %d/%d above 3/4", m.n, len(m.slots))
	}
}

// keyFor draws keys from a small alphabet so sequences revisit, delete and
// collide: key 0, small page numbers, and page numbers at and above 2^36
// (beyond the 36 radix-indexed bits of a 4-level table).
func keyFor(b byte) uint64 {
	switch b % 4 {
	case 0:
		return uint64(b / 4 % 8) // includes key 0
	case 1:
		return uint64(b) * 3
	case 2:
		return 1<<36 + uint64(b)
	default:
		return ^uint64(0) - uint64(b)
	}
}

// apply runs one operation on both the table and the reference map.
func apply(t *testing.T, m *Map[uint64, uint64], ref map[uint64]uint64, op, kb byte, v uint64) {
	t.Helper()
	k := keyFor(kb)
	switch op % 4 {
	case 0: // Put, then write through the returned pointer
		p, added := m.Put(k)
		_, had := ref[k]
		if added == had {
			t.Fatalf("Put(%#x) added=%v, key present before: %v", k, added, had)
		}
		if !added && *p != ref[k] {
			t.Fatalf("Put(%#x) points at %d, want %d", k, *p, ref[k])
		}
		*p = v
		ref[k] = v
	case 1:
		m.Set(k, v)
		ref[k] = v
	case 2:
		_, had := ref[k]
		if got := m.Delete(k); got != had {
			t.Fatalf("Delete(%#x) = %v, want %v", k, got, had)
		}
		delete(ref, k)
	case 3:
		want, had := ref[k]
		if got, ok := m.Get(k); ok != had || got != want {
			t.Fatalf("Get(%#x) = %d,%v; want %d,%v", k, got, ok, want, had)
		}
		if m.Has(k) != had {
			t.Fatalf("Has(%#x) = %v, want %v", k, !had, had)
		}
	}
}

func TestDifferentialAgainstGoMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 200; seq++ {
		var m Map[uint64, uint64]
		ref := map[uint64]uint64{}
		// Insert-heavy phases grow the table; delete-heavy phases shift.
		for step := 0; step < 400; step++ {
			op := byte(rng.Intn(4))
			if step/100%2 == 1 && rng.Intn(2) == 0 {
				op = 2
			}
			apply(t, &m, ref, op, byte(rng.Intn(256)), rng.Uint64())
			checkAgainst(t, &m, ref)
		}
		m.Clear()
		clear(ref)
		checkAgainst(t, &m, ref)
	}
}

// TestDeleteShiftsAcrossWrapAround fills the run that wraps from the last
// slot to the first and deletes from its head, so the backward shift moves
// entries across the wrap, including one whose home is slot 0.
func TestDeleteShiftsAcrossWrapAround(t *testing.T) {
	var m Map[uint64, uint64]
	m.Put(1) // allocate the first table (8 slots)
	m.Delete(1)
	last := uint64(len(m.slots) - 1)
	var atLast, atZero []uint64
	for k := uint64(1); len(atLast) < 3 || len(atZero) < 1; k++ {
		switch m.home(k) {
		case last:
			atLast = append(atLast, k)
		case 0:
			atZero = append(atZero, k)
		}
	}
	ref := map[uint64]uint64{}
	keys := append(append([]uint64{}, atLast[:3]...), atZero[0])
	for i, k := range keys {
		m.Set(k, uint64(i+1))
		ref[k] = uint64(i + 1)
	}
	if len(m.slots) != 8 {
		t.Fatalf("table grew to %d slots; the test needs the first table", len(m.slots))
	}
	// Layout: slots 7, 0, 1 hold the last-homed keys, slot 2 the 0-homed.
	if m.slots[last].key != keys[0] || m.slots[0].key != keys[1] || m.slots[2].key != keys[3] {
		t.Fatalf("unexpected layout %+v", m.slots)
	}
	for _, k := range keys[:3] {
		m.Delete(k)
		delete(ref, k)
		checkAgainst(t, &m, ref)
	}
	if m.slots[0].key != keys[3] {
		t.Fatalf("0-homed key not shifted back to slot 0: %+v", m.slots)
	}
}

func TestZeroAndLargeKeys(t *testing.T) {
	var m Map[uint64, uint64]
	if m.Has(0) || m.Ptr(0) != nil || m.Delete(0) {
		t.Fatal("empty map reports key 0")
	}
	keys := []uint64{0, 1 << 36, 1<<36 + 1, 1 << 63, ^uint64(0)}
	for i, k := range keys {
		m.Set(k, uint64(i)+10)
	}
	ref := map[uint64]uint64{}
	for i, k := range keys {
		ref[k] = uint64(i) + 10
	}
	checkAgainst(t, &m, ref)
	sorted := m.SortedKeys()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			t.Fatalf("SortedKeys not ascending: %v", sorted)
		}
	}
	if len(sorted) != len(keys) {
		t.Fatalf("SortedKeys = %v", sorted)
	}
	m.Delete(0)
	delete(ref, 0)
	checkAgainst(t, &m, ref)
}

// TestPutPointerValidUntilNextMutation pins the pointer contract: a pointer
// from Put (or Ptr) stays valid across reads, but a later Put may rehash
// the table, after which the pointer no longer aliases the stored value.
func TestPutPointerValidUntilNextMutation(t *testing.T) {
	var m Map[uint64, uint64]
	p, _ := m.Put(5)
	*p = 1
	m.Get(6)
	m.Has(5)
	*p = 2 // reads do not move values
	if v, _ := m.Get(5); v != 2 {
		t.Fatalf("write through Put pointer lost: %d", v)
	}
	// Fill the first table to its growth point; the next Put rehashes.
	for k := uint64(100); m.Len() < 6; k++ {
		m.Set(k, k)
	}
	p = m.Ptr(5)
	m.Put(1000) // grows: every value moves
	*p = 99
	if v, _ := m.Get(5); v != 2 {
		t.Fatalf("stale pointer still aliases the table after growth (value %d)", v)
	}
}

// FuzzMap replays byte-coded operation sequences against a Go map.
func FuzzMap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 4, 2, 0, 3, 4})
	f.Add([]byte{1, 2, 1, 6, 1, 10, 1, 14, 2, 2, 2, 6, 3, 10})
	f.Add([]byte{0, 3, 0, 7, 0, 11, 0, 15, 0, 19, 0, 23, 0, 27, 2, 3, 2, 11, 3, 27})
	f.Add([]byte{1, 1, 1, 5, 1, 9, 1, 13, 1, 17, 1, 21, 1, 25, 1, 29, 1, 33, 2, 1, 2, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var m Map[uint64, uint64]
		ref := map[uint64]uint64{}
		for i := 0; i+1 < len(ops); i += 2 {
			apply(t, &m, ref, ops[i], ops[i+1], uint64(i))
			checkAgainst(t, &m, ref)
		}
	})
}
