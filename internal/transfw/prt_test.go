package transfw

import (
	"testing"

	"idyll/internal/memdef"
)

func TestInsertLookup(t *testing.T) {
	p := new(PRT)
	p.Insert(100, 2)
	gpu, ok := p.Lookup(100)
	if !ok || gpu != 2 {
		t.Fatalf("Lookup = %d,%v", gpu, ok)
	}
}

func TestLookupMiss(t *testing.T) {
	p := new(PRT)
	p.Insert(100, 2)
	// Find a VPN whose fingerprint differs from 100's.
	probe := memdef.VPN(101)
	for Fingerprint(probe) == Fingerprint(100) {
		probe++
	}
	if _, ok := p.Lookup(probe); ok {
		t.Fatal("phantom prediction")
	}
}

func TestFIFOEviction(t *testing.T) {
	p := new(PRT)
	vpns := distinctFingerprintVPNs(Capacity + 1)
	for i, v := range vpns {
		p.Insert(v, i%4) // the last displaces vpns[0]
	}
	if _, ok := p.Lookup(vpns[0]); ok {
		t.Fatal("oldest fingerprint survived")
	}
	if _, ok := p.Lookup(vpns[1]); !ok {
		t.Fatal("second fingerprint lost")
	}
	if p.Len() != Capacity {
		t.Fatalf("len = %d", p.Len())
	}
}

// distinctFingerprintVPNs returns n VPNs with pairwise distinct fingerprints.
func distinctFingerprintVPNs(n int) []memdef.VPN {
	seen := map[uint16]bool{}
	var out []memdef.VPN
	for v := memdef.VPN(0); len(out) < n; v++ {
		fp := Fingerprint(v)
		if !seen[fp] {
			seen[fp] = true
			out = append(out, v)
		}
	}
	return out
}

func TestCollisionGivesFalsePositive(t *testing.T) {
	p := new(PRT)
	base := memdef.VPN(12345)
	p.Insert(base, 3)
	// Find a colliding VPN: same fingerprint, different page.
	probe := base + 1
	for Fingerprint(probe) != Fingerprint(base) {
		probe++
	}
	gpu, ok := p.Lookup(probe)
	if !ok || gpu != 3 {
		t.Fatal("collision should predict (false positive), that's the design")
	}
}

func TestInsertRefreshesExistingFingerprint(t *testing.T) {
	p := new(PRT)
	p.Insert(7, 1)
	p.Insert(7, 2) // same page remaps to GPU2
	gpu, _ := p.Lookup(7)
	if gpu != 2 {
		t.Fatalf("prediction = GPU%d, want GPU2", gpu)
	}
	if p.Len() != 1 {
		t.Fatalf("duplicate fingerprint stored: len=%d", p.Len())
	}
}

func TestInvalidateVPN(t *testing.T) {
	p := new(PRT)
	p.Insert(9, 1)
	p.InvalidateVPN(9)
	if _, ok := p.Lookup(9); ok {
		t.Fatal("invalidated fingerprint still predicts")
	}
	p.InvalidateVPN(9) // no-op on absent entry
}

func TestStatsAndBytes(t *testing.T) {
	p := new(PRT)
	// §7.5: PRT scaled to ~720 bytes to match the IRMB.
	if b := p.Bytes(); b < 700 || b > 740 {
		t.Fatalf("PRT bytes = %d, want ≈720", b)
	}
}

func TestFingerprintSpreadsNeighbours(t *testing.T) {
	// Neighbouring VPNs (a migrated region) must not all collide.
	fps := map[uint16]bool{}
	for v := memdef.VPN(0); v < 256; v++ {
		fps[Fingerprint(v)] = true
	}
	if len(fps) < 200 {
		t.Fatalf("256 neighbouring VPNs produced only %d fingerprints", len(fps))
	}
}
