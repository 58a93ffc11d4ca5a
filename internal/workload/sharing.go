package workload

import (
	"cmp"
	"math/bits"
	"slices"

	"idyll/internal/memdef"
	"idyll/internal/pagemap"
)

// Sharing is a trace's page-sharing profile: which GPUs access each page and
// how often — the data behind Figure 4 and the §5.1 page access sharing
// ratio. It lists every page the trace touches, in ascending VPN order, and
// depends on the trace and the page size alone; no scheme or timing changes
// it.
type Sharing []PageShare

// PageShare is one page's sharing record.
type PageShare struct {
	VPN memdef.VPN
	// Accessors has bit g set when GPU g accesses the page.
	Accessors uint64
	// Accesses counts the page's accesses across all GPUs.
	Accesses uint64
}

// Sharing computes the trace's page-sharing profile at pageSize.
func (t *Trace) Sharing(pageSize memdef.PageSize) Sharing {
	var index pagemap.Map[memdef.VPN, int]
	var shares Sharing
	for g := range t.Accesses {
		for _, cu := range t.Accesses[g] {
			for _, a := range cu {
				vpn := memdef.PageNum(a.VA, pageSize)
				i, added := index.Put(vpn)
				if added {
					*i = len(shares)
					shares = append(shares, PageShare{VPN: vpn})
				}
				p := &shares[*i]
				p.Accessors |= 1 << uint(g)
				p.Accesses++
			}
		}
	}
	slices.SortFunc(shares, func(a, b PageShare) int { return cmp.Compare(a.VPN, b.VPN) })
	return shares
}

// Pages reports the number of distinct pages touched.
func (s Sharing) Pages() int { return len(s) }

// AccessDistribution returns, indexed by sharer count k (1-based up to
// maxGPUs), the fraction of all accesses that went to pages accessed by
// exactly k GPUs; pages with more sharers count at maxGPUs. Index 0 is
// unused. The counts are summed as integers and divided once, so no entry
// depends on page order.
func (s Sharing) AccessDistribution(maxGPUs int) []float64 {
	counts := make([]uint64, maxGPUs+1)
	var total uint64
	for _, p := range s {
		k := min(bits.OnesCount64(p.Accessors), maxGPUs)
		counts[k] += p.Accesses
		total += p.Accesses
	}
	dist := make([]float64, maxGPUs+1)
	if total > 0 {
		for k, n := range counts {
			dist[k] = float64(n) / float64(total)
		}
	}
	return dist
}

// SharedAccessRatio reports the paper's "page access sharing ratio": shared
// page accesses / total accesses, where a shared page is one accessed by
// more than one GPU (§5.1).
func (s Sharing) SharedAccessRatio() float64 {
	var shared, total uint64
	for _, p := range s {
		total += p.Accesses
		if bits.OnesCount64(p.Accessors) > 1 {
			shared += p.Accesses
		}
	}
	if total == 0 {
		return 0
	}
	return float64(shared) / float64(total)
}
