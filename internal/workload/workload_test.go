package workload

import (
	"testing"

	"idyll/internal/memdef"
)

func TestGenerateDeterministic(t *testing.T) {
	p, _ := App("PR")
	a := Generate(p, 4, 2, 100, 7)
	b := Generate(p, 4, 2, 100, 7)
	for g := range a.Accesses {
		for c := range a.Accesses[g] {
			for i := range a.Accesses[g][c] {
				if a.Accesses[g][c][i] != b.Accesses[g][c][i] {
					t.Fatalf("trace diverged at gpu%d cu%d i%d", g, c, i)
				}
			}
		}
	}
}

func TestGenerateDiffersAcrossSeeds(t *testing.T) {
	p, _ := App("PR")
	a := Generate(p, 2, 1, 200, 1)
	b := Generate(p, 2, 1, 200, 2)
	same := 0
	for i := range a.Accesses[0][0] {
		if a.Accesses[0][0][i].VA == b.Accesses[0][0][i].VA {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("seeds produced %d/200 identical accesses", same)
	}
}

func TestGenerateShape(t *testing.T) {
	p, _ := App("KM")
	tr := Generate(p, 4, 8, 50, 3)
	if len(tr.Accesses) != 4 {
		t.Fatalf("GPUs = %d", len(tr.Accesses))
	}
	for g := range tr.Accesses {
		if len(tr.Accesses[g]) != 8 {
			t.Fatalf("gpu%d CUs = %d", g, len(tr.Accesses[g]))
		}
		for c := range tr.Accesses[g] {
			if len(tr.Accesses[g][c]) != 50 {
				t.Fatalf("gpu%d cu%d accesses = %d", g, c, len(tr.Accesses[g][c]))
			}
		}
	}
	if tr.TotalAccesses() != 4*8*50 {
		t.Fatalf("total = %d", tr.TotalAccesses())
	}
}

func TestAccessesStayInFootprint(t *testing.T) {
	for _, p := range Apps() {
		tr := Generate(p, 4, 4, 200, 11)
		limit := memdef.VPN(tr.FootprintPages())
		for g := range tr.Accesses {
			for c := range tr.Accesses[g] {
				for _, a := range tr.Accesses[g][c] {
					vpn := memdef.PageNum(a.VA, memdef.Page4K)
					if vpn >= limit {
						t.Fatalf("%s: access %#x outside footprint (%d pages)", p.Abbr, a.VA, limit)
					}
				}
			}
		}
	}
}

// sharingProfile returns the fraction of accesses to pages touched by >1 GPU
// and the fraction touched by all GPUs.
func sharingProfile(tr *Trace, numGPUs int) (shared, byAll float64) {
	sh := tr.Sharing(memdef.Page4K)
	return sh.SharedAccessRatio(), sh.AccessDistribution(numGPUs)[numGPUs]
}

// Figure 4 regimes: PR/MM/KM dominated by all-GPU sharing; MT mostly
// pairwise (little all-GPU but substantially shared).
func TestSharingRegimesMatchFigure4(t *testing.T) {
	for _, abbr := range []string{"PR", "MM", "KM"} {
		p, _ := App(abbr)
		tr := Generate(p, 4, 8, 500, 5)
		_, byAll := sharingProfile(tr, 4)
		if byAll < 0.30 {
			t.Errorf("%s: all-GPU-shared access fraction = %.2f, want ≥0.30", abbr, byAll)
		}
	}
	p, _ := App("MT")
	tr := Generate(p, 4, 8, 500, 5)
	shared, byAll := sharingProfile(tr, 4)
	if shared < 0.22 {
		t.Errorf("MT: shared fraction = %.2f, want ≥0.22", shared)
	}
	if byAll > shared/2 {
		t.Errorf("MT: all-GPU share %.2f should be well below total shared %.2f (pairwise app)", byAll, shared)
	}
}

func TestWriteRatiosOrdering(t *testing.T) {
	ratio := func(abbr string) float64 {
		p, _ := App(abbr)
		tr := Generate(p, 4, 4, 500, 9)
		w, n := 0, 0
		for g := range tr.Accesses {
			for c := range tr.Accesses[g] {
				for _, a := range tr.Accesses[g][c] {
					if a.Write {
						w++
					}
					n++
				}
			}
		}
		return float64(w) / float64(n)
	}
	// §7.4: IM and C2D write-intensive; PR read-intensive.
	if ratio("IM") <= ratio("PR") || ratio("C2D") <= ratio("PR") {
		t.Fatalf("write-intensity ordering broken: IM=%.2f C2D=%.2f PR=%.2f",
			ratio("IM"), ratio("C2D"), ratio("PR"))
	}
}

func TestAppLookup(t *testing.T) {
	if _, err := App("MT"); err != nil {
		t.Fatal(err)
	}
	if _, err := App("VGG16"); err != nil {
		t.Fatal(err)
	}
	if _, err := App("nope"); err == nil {
		t.Fatal("unknown app did not error")
	}
	if len(AppAbbrs()) != 9 {
		t.Fatal("Table 3 has nine applications")
	}
	if len(Fig1Abbrs()) != 6 {
		t.Fatal("Figure 1 uses six applications")
	}
}

func TestDNNTraceSharesActivations(t *testing.T) {
	apps := DNNApps()
	if len(apps) != 2 {
		t.Fatal("want VGG16 and ResNet18")
	}
	for _, p := range apps {
		tr := Generate(p, 4, 4, 400, 13)
		shared, _ := sharingProfile(tr, 4)
		if shared < 0.1 {
			t.Errorf("%s: shared access fraction = %.2f, want some pipeline sharing", p.Abbr, shared)
		}
		if tr.FootprintPages() <= 0 {
			t.Errorf("%s: bad footprint", p.Abbr)
		}
	}
}

func TestEnlargeScalesFootprint(t *testing.T) {
	p, _ := App("SC")
	big := Enlarge(p, 8)
	if big.PagesPerGPU != p.PagesPerGPU*8 {
		t.Fatal("footprint not scaled")
	}
	if big.HotPages != p.HotPages*8 {
		t.Fatal("hot pool not scaled")
	}
}

func TestSingleGPUTraceStaysInFootprint(t *testing.T) {
	p, _ := App("ST")
	tr := Generate(p, 1, 2, 200, 3)
	limit := memdef.VPN(tr.FootprintPages())
	for _, cu := range tr.Accesses[0] {
		for _, a := range cu {
			if memdef.PageNum(a.VA, memdef.Page4K) >= limit {
				t.Fatalf("single-GPU access %#x outside the footprint", a.VA)
			}
		}
	}
}

func TestParamsStringMentionsTable3Fields(t *testing.T) {
	p, _ := App("PR")
	s := p.String()
	for _, want := range []string{"PR", "PageRank", "Hetero-Mark", "Random"} {
		if !contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestFromAccessesWrapsCustomTrace(t *testing.T) {
	streams := [][][]Access{
		{{{VA: 0x1000}, {VA: 0x2000, Write: true}}}, // GPU0, 1 CU
		{{{VA: 0x1000}}}, // GPU1, 1 CU
	}
	tr := FromAccesses("replay", streams, 5, 2)
	if tr.NumGPUs != 2 || tr.TotalAccesses() != 3 {
		t.Fatalf("custom trace shape: gpus=%d accesses=%d", tr.NumGPUs, tr.TotalAccesses())
	}
	if tr.Params.ComputeGap != 5 || tr.Params.InstrPerAccess != 2 {
		t.Fatal("issue shape lost")
	}
}

func TestFromAccessesRunsOnSystem(t *testing.T) {
	// The custom trace must be runnable end to end; exercised indirectly
	// via FootprintPages not being needed (pre-placement scans the trace).
	defer func() {
		if recover() == nil {
			t.Fatal("empty custom trace accepted")
		}
	}()
	FromAccesses("bad", nil, 1, 1)
}
