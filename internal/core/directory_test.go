package core

import (
	"testing"

	"idyll/internal/memdef"
	"idyll/internal/pagetable"
)

func TestBroadcastDirectoryNamesEveryGPU(t *testing.T) {
	d := NewBroadcastDirectory(4)
	gpus, extra := d.Targets(123)
	if extra != 0 {
		t.Fatalf("extra = %d", extra)
	}
	if gpus != 0b1111 {
		t.Fatalf("targets = %#b", gpus)
	}
	if d.RequiresHostWalkFirst() {
		t.Fatal("baseline must broadcast before the host walk")
	}
	d.Record(123, 1) // must be a no-op
	gpus, _ = d.Targets(123)
	if gpus != 0b1111 {
		t.Fatal("Record changed broadcast behaviour")
	}
	if all, _ := NewBroadcastDirectory(64).Targets(1); all != ^uint64(0) {
		t.Fatalf("64-GPU broadcast = %#x, want every bit", all)
	}
}

func newInPTE(numGPUs, bits int) (*InPTEDirectory, *pagetable.Table) {
	pt := pagetable.New(memdef.Page4K)
	return NewInPTEDirectory(pt, numGPUs, bits), pt
}

func TestInPTEDirectoryTracksAccessors(t *testing.T) {
	d, pt := newInPTE(4, 11)
	pt.Map(7, pagetable.PTE{Valid: true})
	if gpus, _ := d.Targets(7); gpus != 0 {
		t.Fatalf("fresh page has targets %#b", gpus)
	}
	d.Record(7, 0)
	d.Record(7, 2)
	gpus, _ := d.Targets(7)
	if gpus != 0b101 {
		t.Fatalf("targets = %#b, want GPUs 0 and 2", gpus)
	}
	if !d.RequiresHostWalkFirst() {
		t.Fatal("in-PTE directory needs the host walk")
	}
}

func TestInPTEDirectoryClear(t *testing.T) {
	d, pt := newInPTE(4, 11)
	pt.Map(9, pagetable.PTE{Valid: true})
	d.Record(9, 3)
	d.Clear(9)
	if gpus, _ := d.Targets(9); gpus != 0 {
		t.Fatalf("targets after clear = %#b", gpus)
	}
}

func TestInPTEDirectoryStoresBitsInPTEAux(t *testing.T) {
	d, pt := newInPTE(4, 11)
	pt.Map(5, pagetable.PTE{Valid: true})
	d.Record(5, 3)
	pte, _ := pt.Lookup(5)
	if pte.Aux != 1<<3 {
		t.Fatalf("Aux = %#x, want bit 3 (GPU3 → unused bit 55 = offset 3)", pte.Aux)
	}
}

// With 8 GPUs and only 4 unused bits (Figure 19's setting), GPUs 0 and 4
// share bit 0: recording GPU4 must also name GPU0 (false positive, never a
// false negative).
func TestInPTEDirectoryHashCollisionsAreSupersets(t *testing.T) {
	d, pt := newInPTE(8, 4)
	pt.Map(11, pagetable.PTE{Valid: true})
	d.Record(11, 4)
	if gpus, _ := d.Targets(11); gpus != 1<<0|1<<4 {
		t.Fatalf("targets = %#b, want GPUs 0 and 4", gpus)
	}
}

// Property-style check across all GPUs: every recorded GPU always appears in
// Targets (no false negatives), for both wide and narrow hash widths.
func TestInPTEDirectoryNoFalseNegatives(t *testing.T) {
	for _, bits := range []int{4, 11} {
		for numGPUs := 1; numGPUs <= 32; numGPUs *= 2 {
			d, pt := newInPTE(numGPUs, bits)
			pt.Map(1, pagetable.PTE{Valid: true})
			for g := 0; g < numGPUs; g++ {
				d.Record(1, g)
				if gpus, _ := d.Targets(1); gpus&(1<<uint(g)) == 0 {
					t.Fatalf("bits=%d gpus=%d: GPU %d recorded but not targeted", bits, numGPUs, g)
				}
			}
		}
	}
}

func TestInPTEDirectoryUnmappedPageHasNoTargets(t *testing.T) {
	d, _ := newInPTE(4, 11)
	if gpus, _ := d.Targets(999); gpus != 0 {
		t.Fatalf("targets for unmapped page = %#b", gpus)
	}
}

func TestVMDirectoryExactTracking(t *testing.T) {
	d := NewVMDirectory(4, 2, 150)
	d.Record(3, 1)
	d.Record(3, 2)
	if gpus, _ := d.Targets(3); gpus != 0b110 {
		t.Fatalf("targets = %#b", gpus)
	}
	d.Clear(3)
	if gpus, _ := d.Targets(3); gpus != 0 {
		t.Fatalf("targets after clear = %#b", gpus)
	}
	if d.RequiresHostWalkFirst() {
		t.Fatal("VM-Cache is parallel to the host walk")
	}
}

func TestVMDirectoryCacheMissCostsMemoryAccess(t *testing.T) {
	d := NewVMDirectory(4, 2, 150)
	_, lat := d.Targets(1) // cold: miss
	if lat != 152 {
		t.Fatalf("cold lookup latency = %d, want 152", lat)
	}
	_, lat = d.Targets(1) // now cached
	if lat != 2 {
		t.Fatalf("warm lookup latency = %d, want 2", lat)
	}
	if d.Lookups() != 2 || d.Hits() != 1 {
		t.Fatalf("lookups/hits = %d/%d, want 2/1", d.Lookups(), d.Hits())
	}
}

func TestVMDirectoryEvictionWritesBack(t *testing.T) {
	d := NewVMDirectory(4, 2, 150)
	// Fill one VM-Cache set (16 sets, 4 ways): VPNs congruent mod 16.
	for i := 0; i < 5; i++ {
		d.Record(memdef.VPN(i*16), i%4)
	}
	// VPN 0 was evicted; its mask must survive in the VM-Table.
	if gpus, _ := d.Targets(0); gpus != 1 {
		t.Fatalf("written-back mask lost: targets = %#b", gpus)
	}
}

func TestVMDirectoryHashBeyond19GPUs(t *testing.T) {
	d := NewVMDirectory(24, 2, 150)
	d.Record(1, 20) // bit 20%19 = 1, shared with GPU 1
	if gpus, _ := d.Targets(1); gpus != 1<<1|1<<20 {
		t.Fatalf("targets = %#b, want GPUs 1 and 20", gpus)
	}
}
