package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
)

// TestBenchmarkJSONGrammar validates BENCHMARK.json against the benchmark
// file grammar and against the metrics this program actually prints.
func TestBenchmarkJSONGrammar(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil || len(top) != 6 {
		t.Fatalf("want exactly the six top-level keys, got %d (%v)", len(top), err)
	}

	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if len(b.Paths) < 1 || len(b.Paths) > 16 {
		t.Errorf("%d paths", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}

	used := map[string]bool{}
	checkName := func(kind, n string) {
		if !nameRE.MatchString(n) || used[n] {
			t.Errorf("%s name %q malformed or reused", kind, n)
		}
		used[n] = true
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads", len(b.Workloads))
	}
	var wnames []string
	for _, w := range b.Workloads {
		checkName("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		wnames = append(wnames, w.Name)
	}
	var known []string
	for n := range workloads {
		known = append(known, n)
	}
	sort.Strings(wnames)
	sort.Strings(known)
	if strings.Join(wnames, ",") != strings.Join(known, ",") {
		t.Errorf("workloads %v, program runs %v", wnames, known)
	}

	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics", len(b.EndToEnd))
	}
	printed := endToEnd(&result{})
	setup := false
	for _, m := range b.EndToEnd {
		checkName("metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
		}
		if p, ok := printed[m.Name]; !ok || p.Unit != m.Unit {
			t.Errorf("metric %s (%s) is not printed with that unit", m.Name, m.Unit)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
	if len(printed) != len(b.EndToEnd) {
		t.Errorf("program prints %d end-to-end metrics, file lists %d", len(printed), len(b.EndToEnd))
	}

	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(b.PerLayer))
	}
	for _, m := range b.PerLayer {
		checkName("metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if u, ok := layerUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer metric %s (%s) is not printed with that unit", m.Name, m.Unit)
		}
	}
	if len(layerUnits) != len(b.PerLayer) {
		t.Errorf("program prints %d per-layer metrics, file lists %d", len(layerUnits), len(b.PerLayer))
	}
}
