package workload

import (
	"math"
	"math/bits"
	"sort"
	"testing"

	"idyll/internal/memdef"
)

// oracleShare is one page's record in the brute-force oracle.
type oracleShare struct {
	accessors uint64
	accesses  uint64
}

// oracleSharing walks the trace access by access into a Go map — the way the
// simulator once recorded sharing as it issued each access.
func oracleSharing(tr *Trace, pageSize memdef.PageSize) map[memdef.VPN]oracleShare {
	pages := map[memdef.VPN]oracleShare{}
	for g := range tr.Accesses {
		for c := range tr.Accesses[g] {
			for _, a := range tr.Accesses[g][c] {
				vpn := memdef.PageNum(a.VA, pageSize)
				p := pages[vpn]
				p.accessors |= 1 << uint(g)
				p.accesses++
				pages[vpn] = p
			}
		}
	}
	return pages
}

// oracleDistribution is Figure 4's reduction as the simulator once computed
// it: float sums in ascending page order, divided by the total at the end.
func oracleDistribution(pages map[memdef.VPN]oracleShare, maxGPUs int) []float64 {
	vpns := make([]memdef.VPN, 0, len(pages))
	for vpn := range pages {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	dist := make([]float64, maxGPUs+1)
	var total uint64
	for _, vpn := range vpns {
		p := pages[vpn]
		k := min(bits.OnesCount64(p.accessors), maxGPUs)
		dist[k] += float64(p.accesses)
		total += p.accesses
	}
	if total > 0 {
		for i := range dist {
			dist[i] /= float64(total)
		}
	}
	return dist
}

// Differential test: the sharing profile equals the per-access oracle page
// for page, and its Figure 4 distribution and sharing ratio are
// bit-identical to the oracle's, for every Table 3 and DNN app at both page
// sizes and at 4 and 16 GPUs.
func TestSharingMatchesPerAccessOracle(t *testing.T) {
	apps := append(Apps(), DNNApps()...)
	for _, gpus := range []int{4, 16} {
		for _, ps := range []memdef.PageSize{memdef.Page4K, memdef.Page2M} {
			for _, p := range apps {
				tr := Generate(p, gpus, 2, 200, 17)
				got := tr.Sharing(ps)
				want := oracleSharing(tr, ps)
				if got.Pages() != len(want) {
					t.Fatalf("%s/%d GPUs/%v: %d pages, oracle %d", p.Abbr, gpus, ps, got.Pages(), len(want))
				}
				var shared, total uint64
				for i, s := range got {
					if i > 0 && got[i-1].VPN >= s.VPN {
						t.Fatalf("%s/%d GPUs/%v: pages out of order at %d", p.Abbr, gpus, ps, i)
					}
					o := want[s.VPN]
					if s.Accessors != o.accessors || s.Accesses != o.accesses {
						t.Fatalf("%s/%d GPUs/%v: page %d = %+v, oracle %+v", p.Abbr, gpus, ps, s.VPN, s, o)
					}
					total += o.accesses
					if bits.OnesCount64(o.accessors) > 1 {
						shared += o.accesses
					}
				}
				for _, k := range []int{gpus, 4} {
					gd, od := got.AccessDistribution(k), oracleDistribution(want, k)
					for i := range od {
						if math.Float64bits(gd[i]) != math.Float64bits(od[i]) {
							t.Fatalf("%s/%d GPUs/%v: distribution[%d] over %d = %v, oracle %v",
								p.Abbr, gpus, ps, i, k, gd[i], od[i])
						}
					}
				}
				if r := got.SharedAccessRatio(); r != float64(shared)/float64(total) {
					t.Fatalf("%s/%d GPUs/%v: shared ratio %v, oracle %v", p.Abbr, gpus, ps, r, float64(shared)/float64(total))
				}
			}
		}
	}
}

// accessTrace builds a one-CU-per-GPU trace from each GPU's page list.
func accessTrace(pages ...[]memdef.VPN) *Trace {
	accesses := make([][][]Access, len(pages))
	for g, ps := range pages {
		cu := make([]Access, len(ps))
		for i, vpn := range ps {
			cu[i] = Access{VA: vpn.Addr(memdef.Page4K)}
		}
		accesses[g] = [][]Access{cu}
	}
	return FromAccesses("t", accesses, 0, 1)
}

func TestSharingDistribution(t *testing.T) {
	// Page 1: GPUs 0,1,2,3 access it, 4 accesses total.
	// Page 2: only GPU 0, 6 accesses.
	sh := accessTrace(
		[]memdef.VPN{1, 2, 2, 2, 2, 2, 2},
		[]memdef.VPN{1}, []memdef.VPN{1}, []memdef.VPN{1},
	).Sharing(memdef.Page4K)
	dist := sh.AccessDistribution(4)
	if math.Abs(dist[4]-0.4) > 1e-12 {
		t.Fatalf("shared-by-4 = %v, want 0.4", dist[4])
	}
	if math.Abs(dist[1]-0.6) > 1e-12 {
		t.Fatalf("one-GPU = %v, want 0.6", dist[1])
	}
	if got := sh.SharedAccessRatio(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("shared ratio = %v", got)
	}
	if sh.Pages() != 2 {
		t.Fatalf("pages = %d", sh.Pages())
	}
}

func TestSharingDistributionSums(t *testing.T) {
	pages := make([][]memdef.VPN, 3)
	for i := 0; i < 100; i++ {
		pages[i%3] = append(pages[i%3], memdef.VPN(i%7))
	}
	dist := accessTrace(pages...).Sharing(memdef.Page4K).AccessDistribution(4)
	sum := 0.0
	for _, f := range dist {
		sum += f
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Fatalf("distribution sums to %v", sum)
	}
}
