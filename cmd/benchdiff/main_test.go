package main

import (
	"os"
	"path/filepath"
	"testing"
)

// Custom metrics a benchmark reports beside the standard three (the fig11
// suite's idyll-speedup and gcs/op) are skipped, wherever they sit on the
// line, and the standard metrics still collapse to their median.
func TestParseBenchSkipsCustomMetrics(t *testing.T) {
	out := `goos: linux
BenchmarkSuiteFig11Serial-2   	       3	1419273820 ns/op	         9.000 gcs/op	         1.386 idyll-speedup	39309968 B/op	  515811 allocs/op
BenchmarkSuiteFig11Serial-2   	       3	1319273820 ns/op	         8.333 gcs/op	         1.386 idyll-speedup	39309960 B/op	  515810 allocs/op
BenchmarkSuiteFig11Serial-2   	       3	1519273820 ns/op	         8.667 gcs/op	         1.386 idyll-speedup	39309970 B/op	  515812 allocs/op
PASS
`
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parseBench(f)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := got["BenchmarkSuiteFig11Serial"]
	if !ok || len(got) != 1 {
		t.Fatalf("parsed %v, want one BenchmarkSuiteFig11Serial", got)
	}
	if r.NsPerOp != 1419273820 || r.BytesPerOp != 39309968 || r.AllocsPerOp != 515811 {
		t.Fatalf("medians %v ns/op, %v B/op, %v allocs/op", r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
}
