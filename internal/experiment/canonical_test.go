package experiment

import (
	"bytes"
	"context"
	"testing"
)

func TestCanonicalFillsDefaults(t *testing.T) {
	c, err := Options{}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultOptions()
	if c.CUsPerGPU != def.CUsPerGPU || c.AccessesPerCU != def.AccessesPerCU ||
		c.Seed != def.Seed || c.CounterThreshold != def.CounterThreshold {
		t.Errorf("zero options canonicalized to %+v, want defaults %+v", c, def)
	}
	// A spelled-out default and the zero value must hash identically.
	a, err := Options{}.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := def.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("zero options encode %s, defaults encode %s", a, b)
	}
}

func TestCanonicalRejectsNegative(t *testing.T) {
	for _, o := range []Options{
		{CUsPerGPU: -1},
		{AccessesPerCU: -4},
		{CounterThreshold: -2},
		{Jobs: -8},
	} {
		if _, err := o.Canonical(); err == nil {
			t.Errorf("Canonical(%+v) accepted a negative field", o)
		}
	}
}

func TestCanonicalRejectsUnknownApp(t *testing.T) {
	if _, err := (Options{Apps: []string{"NOSUCH"}}).Canonical(); err == nil {
		t.Error("Canonical accepted an unknown app")
	}
}

func TestCanonicalExcludesExecutionKnobs(t *testing.T) {
	base := QuickOptions()
	noisy := base
	noisy.Jobs = 7
	noisy.Progress = func(int, int, string) {}
	noisy = noisy.WithContext(context.Background())
	a, err := base.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := noisy.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("execution knobs leaked into the canonical encoding:\n%s\n%s", a, b)
	}
}

// TestCanonicalJSONByteStable is the cache-key correctness property:
// encode(decode(encode(x))) == encode(x), byte for byte, including for specs
// that arrive partially filled or with non-canonical app spellings.
func TestCanonicalJSONByteStable(t *testing.T) {
	cases := []Options{
		{},
		DefaultOptions(),
		QuickOptions(),
		{CUsPerGPU: 2, AccessesPerCU: 50, Seed: 99, CounterThreshold: 1},
		{Apps: []string{"pr", "bs"}}, // non-canonical case resolves via registry
		{Seed: 1<<53 - 1},            // largest float64-exact seed region
	}
	for _, o := range cases {
		first, err := o.CanonicalJSON()
		if err != nil {
			t.Fatalf("encode(%+v): %v", o, err)
		}
		decoded, err := OptionsFromCanonicalJSON(first)
		if err != nil {
			t.Fatalf("decode(%s): %v", first, err)
		}
		second, err := decoded.CanonicalJSON()
		if err != nil {
			t.Fatalf("re-encode(%+v): %v", decoded, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("not byte-stable:\n first=%s\nsecond=%s", first, second)
		}
	}
}

func TestOptionsFromCanonicalJSONRejectsUnknownField(t *testing.T) {
	// Execution fields are not part of the encoding either: accepting one
	// would suggest it changes the result.
	for _, field := range []string{`"warp_width":32`, `"jobs":2`, `"Jobs":2`,
		`"CheckpointStore":null`, `"Progress":null`, `"ctx":null`} {
		if _, err := OptionsFromCanonicalJSON([]byte(`{"cus_per_gpu":4,` + field + `}`)); err == nil {
			t.Errorf("unknown field %s accepted — it would alias a different result", field)
		}
	}
}
