// Package transfw reimplements the relevant mechanism of Trans-FW (Li et
// al., HPCA 2023), the state-of-the-art the paper compares against in §7.5:
// short-circuiting far faults by forwarding the translation request to a
// remote GPU predicted — via a fingerprint table — to hold a valid mapping
// in its local page table, instead of waiting for the host UVM driver.
//
// The prediction structure is the PRT (Presence Remote Table): a FIFO of
// compact VPN fingerprints tagged with the GPU that established the mapping.
// Fingerprints are lossy, so lookups can produce false positives (the
// remote walk then finds nothing and the fault falls back to the host path);
// capacity is bounded, so entries age out. For the §7.5 comparison the PRT
// is scaled to 443 fingerprints ≈ 720 bytes, matching the IRMB budget.
package transfw

import "idyll/internal/memdef"

// FingerprintBits is the width of a stored VPN fingerprint. 13 tag bits
// (plus the GPU id) keep each entry at 720*8/443 ≈ 13 bits, matching the
// paper's scaled configuration.
const FingerprintBits = 13

// Capacity is the PRT's fingerprint count: the §7.5 size matched to the
// IRMB's 720 bytes.
const Capacity = 443

// Fingerprint compresses a VPN to FingerprintBits bits. The mix must spread
// nearby VPNs (migrated neighbourhoods) across the space; a multiplicative
// hash does.
func Fingerprint(vpn memdef.VPN) uint16 {
	x := uint64(vpn) * 0x9e3779b97f4a7c15
	return uint16(x >> (64 - FingerprintBits))
}

type entry struct {
	fp  uint16
	gpu int8
}

// PRT is one GPU's fingerprint table. The zero PRT is empty and ready to
// use.
type PRT struct {
	fifo []entry
}

// Insert records that gpu holds a valid translation for vpn. The oldest
// fingerprint is displaced when full (FIFO).
func (p *PRT) Insert(vpn memdef.VPN, gpu int) {
	fp := Fingerprint(vpn)
	for i := range p.fifo {
		if p.fifo[i].fp == fp {
			p.fifo[i].gpu = int8(gpu) // refresh prediction in place
			return
		}
	}
	if len(p.fifo) >= Capacity {
		copy(p.fifo, p.fifo[1:])
		p.fifo = p.fifo[:len(p.fifo)-1]
	}
	p.fifo = append(p.fifo, entry{fp: fp, gpu: int8(gpu)})
}

// Lookup predicts which GPU holds a translation for vpn. ok is false when no
// fingerprint matches. A true result is only a prediction: it may be a false
// positive either from fingerprint collision or from staleness.
func (p *PRT) Lookup(vpn memdef.VPN) (gpu int, ok bool) {
	fp := Fingerprint(vpn)
	for i := range p.fifo {
		if p.fifo[i].fp == fp {
			return int(p.fifo[i].gpu), true
		}
	}
	return 0, false
}

// InvalidateVPN removes vpn's fingerprint, called when the holder's mapping
// is invalidated so the PRT does not keep predicting a dead translation.
// Collisions mean this can also remove an alias — safe, since the PRT is
// only a performance hint.
func (p *PRT) InvalidateVPN(vpn memdef.VPN) {
	fp := Fingerprint(vpn)
	for i := range p.fifo {
		if p.fifo[i].fp == fp {
			p.fifo = append(p.fifo[:i], p.fifo[i+1:]...)
			return
		}
	}
}

// Len reports resident fingerprints.
func (p *PRT) Len() int { return len(p.fifo) }

// Bytes reports the hardware cost: Capacity × (fingerprint + GPU id ≈ 13
// bits) rounded to bytes, ≈ 720 bytes.
func (p *PRT) Bytes() int { return Capacity * FingerprintBits / 8 }
