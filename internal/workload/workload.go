// Package workload generates the memory-access traces that drive the
// simulator. The paper (Table 3) evaluates nine multi-GPU applications with
// three page-sharing patterns — adjacent (KM, SC, ST, C2D), random (PR, BS)
// and scatter-gather (MM, MT, IM) — plus two layer-parallel DNNs (§7.6).
//
// We cannot replay the authors' GCN3 instruction traces, so each app is
// modelled by a parameterized generator that reproduces what the paper's
// experiments actually depend on: the page-level access pattern, the
// inter-GPU sharing structure (Figure 4), memory intensity (Table 3's MPKI
// ordering), the read/write mix, and hot-page concentration (which drives
// access-counter migrations). See DESIGN.md "Substitutions".
package workload

import (
	"fmt"

	"idyll/internal/memdef"
	"idyll/internal/sim"
)

// Access is one memory operation of a compute unit.
type Access struct {
	VA    memdef.VAddr
	Write bool
}

// Pattern is the inter-GPU sharing structure of an application.
type Pattern int

const (
	// Adjacent: input is batched and shared with neighbouring GPUs (halo
	// exchange); most sharing is between 2 GPUs at partition boundaries.
	Adjacent Pattern = iota
	// Random: every GPU reads/writes anywhere in the address space; hot
	// pages are shared by all GPUs.
	Random
	// ScatterGather: each GPU holds a slice of the input/output matrices
	// and reads/writes strided slices of the other GPUs' partitions.
	ScatterGather
	// LayerParallel: DNN layers are partitioned across GPUs; activations
	// and shared weights ping-pong between pipeline neighbours (§7.6).
	LayerParallel
)

func (p Pattern) String() string {
	switch p {
	case Adjacent:
		return "Adjacent"
	case Random:
		return "Random"
	case ScatterGather:
		return "Scatter-Gather"
	case LayerParallel:
		return "Layer-Parallel"
	}
	return "Unknown"
}

// Params describes one application's generator.
type Params struct {
	Abbr    string
	Name    string
	Suite   string
	Pattern Pattern

	// PaperMPKI is Table 3's reported L2 TLB MPKI, kept for reference and
	// for ordering checks; the generator is calibrated to reproduce the
	// ordering, not the absolute value.
	PaperMPKI float64

	// PagesPerGPU is the per-GPU partition of the footprint, in pages.
	PagesPerGPU int
	// RunLength is how many consecutive accesses stay within one page
	// before moving on — the page-level locality knob (low run length ⇒
	// high MPKI, e.g. MT; high ⇒ low MPKI, e.g. BS).
	RunLength int
	// PrivateScatter makes private-region accesses jump to random pages of
	// the partition instead of streaming it — the irregular access shape of
	// the scatter-gather and random apps, which is what keeps the page-walk
	// cache under pressure (column walks of MT touch a new page-table
	// subtree almost every access).
	PrivateScatter bool
	// SharedFraction is the probability an access goes to the shared
	// region instead of the GPU's private streaming region.
	SharedFraction float64
	// GlobalFrac, PairFrac and NeighbourFrac split shared accesses between
	// an all-GPU hot pool (KMeans centroids, PageRank hubs, MM's broadcast
	// operand), a fixed-partner pool (matrix-transpose pairs, bitonic
	// exchange partners) and the neighbour halo (stencil boundaries). They
	// are normalized internally; together with the pattern they reproduce
	// Figure 4's per-app sharing distribution.
	GlobalFrac    float64
	PairFrac      float64
	NeighbourFrac float64
	// HotPages is the size of each hot shared pool and HotZipf its skew;
	// hot pages are what accumulate enough remote accesses to cross the
	// access-counter migration threshold.
	HotPages int
	HotZipf  float64
	// WriteRatio is the store fraction (drives the replication comparison:
	// IM and C2D are write-intensive, PR/ST/SC read-intensive, §7.4).
	WriteRatio float64
	// ComputeGap is the issue gap in cycles between a CU slot retiring one
	// access and issuing the next — the latency-hiding knob (§7.1: IM has
	// little computation to hide translation latency).
	ComputeGap int
	// InstrPerAccess scales accesses to dynamic instructions for MPKI.
	InstrPerAccess int
	// Phased enables phase-sticky shared sampling: all CUs of a GPU
	// concentrate on one focus window of a pool for phaseLen accesses (the
	// behaviour a CTA scheduler produces). It gives migration an
	// amortization horizon at the cost of diluting concurrent sharing; the
	// calibrated Table 3 apps leave it off (see EXPERIMENTS.md
	// "Known deviations").
	Phased bool
	// ThresholdFactor multiplies the machine's access-counter threshold for
	// this workload. Compute-dominated traces (the DNNs) compress far more
	// work into each memory access than the memory-bound apps, so the
	// trace-scaled threshold must scale back up to keep the migrations-per
	// unit-of-work rate in the paper's regime (default 1).
	ThresholdFactor int
	// DNNLayers holds per-layer weight page counts for LayerParallel apps.
	DNNLayers []int
}

// Trace is a fully generated workload: per-GPU, per-CU access streams.
type Trace struct {
	Params  Params
	NumGPUs int
	// Accesses[gpu][cu] is the ordered access stream of one CU.
	Accesses [][][]Access
}

// TotalAccesses reports the number of accesses across all CUs.
func (t *Trace) TotalAccesses() int {
	n := 0
	for _, gpu := range t.Accesses {
		for _, cu := range gpu {
			n += len(cu)
		}
	}
	return n
}

// Address-space layout for the pattern apps. Shared data structures are
// allocated as contiguous segments after the private partitions — as real
// applications allocate shared arrays (PageRank's rank vector, KMeans'
// centroids, a matrix operand read by everyone) — so block migrations and
// IRMB base-merging see the same contiguity they would on real traces:
//
//	[0, n·part)                        per-GPU private partitions
//	[n·part, n·part+hot)               global hot pool (shared by all)
//	then one hot segment per GPU pair  pair pools (transpose/exchange)
//
// The neighbour halo lives at partition boundaries inside the private range.

// globalPoolBase returns the first page of the all-GPU hot pool.
func globalPoolBase(p Params, numGPUs int) int { return p.PagesPerGPU * numGPUs }

// pairPoolBase returns the first page of pair pool k (k = min(g, partner)).
func pairPoolBase(p Params, numGPUs, k int) int {
	return globalPoolBase(p, numGPUs) + p.HotPages + k*p.HotPages
}

// FootprintPages reports the size of the virtual footprint in pages.
func (t *Trace) FootprintPages() int {
	if t.Params.Pattern == LayerParallel {
		total := 0
		for _, l := range t.Params.DNNLayers {
			total += l + activationPagesPerLayer
		}
		return total + activationPagesPerLayer
	}
	// One pair segment per canonical pair id; ids can reach NumGPUs-1 when
	// the GPU count is odd, so reserve a segment per GPU.
	return t.Params.PagesPerGPU*t.NumGPUs + t.Params.HotPages*(1+t.NumGPUs)
}

// Generate builds a trace for numGPUs GPUs with cusPerGPU CUs each, with
// accessesPerCU accesses per CU, deterministically from seed.
func Generate(p Params, numGPUs, cusPerGPU, accessesPerCU int, seed uint64) *Trace {
	if numGPUs < 1 || cusPerGPU < 1 || accessesPerCU < 1 {
		panic("workload: non-positive trace geometry")
	}
	t := &Trace{Params: p, NumGPUs: numGPUs}
	t.Accesses = make([][][]Access, numGPUs)
	for g := 0; g < numGPUs; g++ {
		t.Accesses[g] = make([][]Access, cusPerGPU)
		for c := 0; c < cusPerGPU; c++ {
			r := sim.NewRand(seed ^ uint64(g)<<32 ^ uint64(c)<<16 ^ 0x51f0)
			t.Accesses[g][c] = generateCU(p, numGPUs, g, c, accessesPerCU, r)
		}
	}
	return t
}

// FromAccesses wraps externally produced per-GPU, per-CU access streams —
// e.g. replayed from a real application trace — into a Trace the system can
// run. computeGap and instrPerAccess set the issue shape (see Params).
func FromAccesses(name string, accesses [][][]Access, computeGap, instrPerAccess int) *Trace {
	if len(accesses) == 0 {
		panic("workload: empty custom trace")
	}
	return &Trace{
		Params: Params{
			Abbr:           name,
			Name:           name,
			Suite:          "custom",
			ComputeGap:     computeGap,
			InstrPerAccess: instrPerAccess,
		},
		NumGPUs:  len(accesses),
		Accesses: accesses,
	}
}

// activationPagesPerLayer is the modelled activation buffer per DNN layer.
const activationPagesPerLayer = 64

// generateCU produces one CU's stream.
func generateCU(p Params, numGPUs, gpu, cu, n int, r *sim.Rand) []Access {
	if p.Pattern == LayerParallel {
		return generateDNNCU(p, numGPUs, gpu, cu, n, r)
	}
	out := make([]Access, 0, n)
	partPages := p.PagesPerGPU
	base := memdef.VPN(gpu * partPages)
	// Private streaming position: CUs start spread across the partition so
	// a GPU's CUs collectively stream it (inter-CTA locality).
	pos := (cu * partPages) / 16
	var hot *sim.Zipf
	if p.HotPages > 0 {
		hot = sim.NewZipf(r, p.HotPages, p.HotZipf)
	}

	for len(out) < n {
		var vpn memdef.VPN
		if p.SharedFraction > 0 && r.Bool(p.SharedFraction) {
			epoch := len(out) / phaseLen(p)
			vpn = sharedPage(p, numGPUs, gpu, epoch, r, hot)
		} else {
			if p.PrivateScatter {
				pos = r.Intn(partPages)
			} else {
				pos = (pos + 1 + r.Intn(2)) % partPages
			}
			vpn = base + memdef.VPN(pos)
		}
		run := 1 + r.Intn(max(1, p.RunLength))
		for k := 0; k < run && len(out) < n; k++ {
			off := uint64(r.Intn(4096/64)) * 64
			out = append(out, Access{
				VA:    vpn.Addr(memdef.Page4K) + memdef.VAddr(off),
				Write: r.Bool(p.WriteRatio),
			})
		}
	}
	return out
}

// phaseLen is the per-CU access count of one sharing phase (see sharedPage).
func phaseLen(p Params) int {
	if p.RunLength >= 8 {
		return 96 // locality-rich apps have longer phases
	}
	return 64
}

// phaseMix deterministically mixes (gpu, epoch) for phase-sticky choices.
func phaseMix(gpu, epoch int) uint64 {
	x := uint64(gpu)<<32 ^ uint64(epoch) ^ 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sharedPage picks a page from one of the shared pools. The pool choice is
// weighted by GlobalFrac/PairFrac/NeighbourFrac; within a pool, hot ranks
// follow the app's Zipf skew. Pool page sets are deterministic functions of
// rank (not of the accessing GPU), so the same hot pages are hit from every
// participating GPU — which is what makes them shared and what drives their
// access counters over the migration threshold.
//
// Sharing is *phased*: within an epoch of phaseLen accesses, every CU of a
// GPU concentrates on the same small focus window of its chosen pool. Real
// multi-GPU kernels behave this way — the CTA scheduler keeps a GPU's CUs
// on adjacent work items, so a GPU hammers a shared region for a stretch
// before another GPU takes it over. This is what gives counter-based
// migration its amortization horizon (Figure 2): a migrated page serves
// many local accesses before the next GPU's counters reclaim it. A
// background fraction of unphased accesses keeps the pools concurrently
// shared.
func sharedPage(p Params, numGPUs, gpu, epoch int, r *sim.Rand, hot *sim.Zipf) memdef.VPN {
	part := p.PagesPerGPU
	footprint := part * numGPUs
	rank := 0
	if hot != nil {
		rank = hot.Rank()
	}
	total := p.GlobalFrac + p.PairFrac + p.NeighbourFrac
	if total <= 0 {
		total = 1 // all weights zero: fall through to the neighbour halo
	}
	u := r.Float64() * total
	if p.Phased && !r.Bool(0.25) {
		// Phase-sticky choice: pool and focus window fixed for this epoch.
		h := phaseMix(gpu, epoch)
		u = float64(h%1024) / 1024 * total
		window := 4 // an aligned group of pages, matching migration blocks
		lo := int(h>>10) % max(1, p.HotPages-window)
		rank = lo + r.Intn(window)
	}
	switch {
	case u < p.GlobalFrac:
		// All-GPU hot pool: a contiguous shared segment (rank 0 hottest),
		// identical for every GPU.
		return memdef.VPN(globalPoolBase(p, numGPUs) + rank%max(1, p.HotPages))
	case u < p.GlobalFrac+p.PairFrac:
		// Fixed-partner pool: the contiguous exchange buffer of this GPU
		// pair (matrix transpose / bitonic partners). Both ends use the
		// same segment, so its pages see exactly two sharers.
		partner := numGPUs - 1 - gpu
		if partner == gpu {
			partner = (gpu + 1) % numGPUs
		}
		pair := gpu
		if partner < gpu {
			pair = partner // canonical pair id
		}
		return memdef.VPN(pairPoolBase(p, numGPUs, pair) + rank%max(1, p.HotPages))
	default:
		// Neighbour halo: the boundary region between this partition and a
		// randomly chosen adjacent one.
		neighbour := gpu
		if r.Bool(0.5) && gpu+1 < numGPUs {
			neighbour = gpu + 1
		} else if gpu > 0 {
			neighbour = gpu - 1
		} else if gpu+1 < numGPUs {
			neighbour = gpu + 1
		}
		halo := max(2, p.HotPages)
		var boundary int
		if neighbour > gpu {
			boundary = (gpu + 1) * part
		} else if neighbour < gpu {
			boundary = gpu * part
		} else { // single GPU: no halo, stay local
			return memdef.VPN(gpu*part + rank%part)
		}
		lo := boundary - halo/2
		if lo < 0 {
			lo = 0
		}
		if lo+halo > footprint {
			lo = footprint - halo
		}
		return memdef.VPN(lo + rank%halo)
	}
}

// generateDNNCU models layer-parallel DNN execution (§7.6): GPU g owns the
// layers l with l % numGPUs == g. Per microbatch it streams input
// activations written by the previous stage (2-GPU sharing), repeatedly
// reads its layer weights, reads a slice of the *shared* classifier/embedding
// weights (all-GPU sharing), and writes its output activations.
func generateDNNCU(p Params, numGPUs, gpu, cu, n int, r *sim.Rand) []Access {
	// Lay out the address space: weights per layer, then activations.
	layerWeightBase := make([]memdef.VPN, len(p.DNNLayers))
	next := memdef.VPN(0)
	for i, pages := range p.DNNLayers {
		layerWeightBase[i] = next
		next += memdef.VPN(pages)
	}
	actBase := make([]memdef.VPN, len(p.DNNLayers)+1)
	for i := range actBase {
		actBase[i] = next
		next += activationPagesPerLayer
	}

	myLayers := []int{}
	for l := range p.DNNLayers {
		if l%numGPUs == gpu {
			myLayers = append(myLayers, l)
		}
	}
	if len(myLayers) == 0 {
		myLayers = []int{gpu % len(p.DNNLayers)}
	}

	out := make([]Access, 0, n)
	zipf := sim.NewZipf(r, 64, 0.8)
	for len(out) < n {
		l := myLayers[r.Intn(len(myLayers))]
		wbase := layerWeightBase[l]
		wpages := p.DNNLayers[l]
		emit := func(vpn memdef.VPN, write bool) {
			if len(out) >= n {
				return
			}
			off := uint64(r.Intn(4096/64)) * 64
			out = append(out, Access{VA: vpn.Addr(memdef.Page4K) + memdef.VAddr(off), Write: write})
		}
		// Weight reads dominate (GEMM operand reuse); the layer's weights
		// live on this GPU, so these are local streaming reads.
		for k := 0; k < 12; k++ {
			emit(wbase+memdef.VPN(r.Intn(max(1, wpages))), false)
		}
		// Read input activations (written by the previous stage's GPU) —
		// the cross-stage sharing that triggers migrations.
		for k := 0; k < 2; k++ {
			emit(actBase[l]+memdef.VPN(zipf.Rank()%activationPagesPerLayer), false)
		}
		// Occasionally touch the shared trunk weights (first layers are read
		// by every stage for skip/normalization paths).
		if r.Bool(0.1) {
			emit(layerWeightBase[0]+memdef.VPN(zipf.Rank()%max(1, p.DNNLayers[0])), false)
		}
		// Write output activations for the next stage.
		emit(actBase[l+1]+memdef.VPN(zipf.Rank()%activationPagesPerLayer), true)
	}
	return out
}

// String renders the app line as in Table 3.
func (p Params) String() string {
	return fmt.Sprintf("%-4s %-24s %-12s MPKI %-7.2f %s",
		p.Abbr, p.Name, p.Suite, p.PaperMPKI, p.Pattern)
}
