package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsSeeded(t *testing.T) {
	a := schedule(1, 500, 100, 5*time.Second, zipfExponent)
	b := schedule(1, 500, 100, 5*time.Second, zipfExponent)
	c := schedule(2, 500, 100, 5*time.Second, zipfExponent)
	if len(a) < 300 || len(a) > 700 {
		t.Fatalf("%d requests for 5 s at 100/s", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, r := range a {
		if r.entry < 0 || r.entry >= 500 || (i > 0 && r.due < a[i-1].due) {
			t.Fatalf("request %d = %+v out of range or out of order", i, r)
		}
	}
}

func TestCatalogueIsSeeded(t *testing.T) {
	a, err := catalogue(1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := catalogue(1)
	c, _ := catalogue(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different catalogues")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same catalogue")
	}
	seen := map[string]bool{}
	for _, e := range a {
		if seen[string(e.spec)] {
			t.Fatalf("duplicate spec %s", e.spec)
		}
		seen[string(e.spec)] = true
		if !bytes.Contains(e.spec, []byte(`"kind"`)) || e.accesses <= 0 {
			t.Fatalf("malformed entry %s", e.spec)
		}
	}
}

func TestSimInputsAreSeeded(t *testing.T) {
	draw := func(seed uint64) []uint64 {
		rng := seededRand(seed, scheduleStream)
		var seeds, picks []uint64
		for i := 0; i < 50; i++ {
			idx, fresh := nextInput(rng, len(seeds), 0.35)
			if fresh {
				seeds = append(seeds, inputSeed(seed, idx))
			}
			picks = append(picks, seeds[idx])
		}
		return picks
	}
	if !reflect.DeepEqual(draw(3), draw(3)) {
		t.Fatal("same seed gave different operation inputs")
	}
	if reflect.DeepEqual(draw(3), draw(4)) {
		t.Fatal("different seeds gave the same operation inputs")
	}
	if inputSeed(0, 0) == 0 {
		t.Fatal("input seed 0 means the default seed to the facade")
	}
}
