package config

import (
	"strings"
	"testing"
)

// TestValidateBoundsNumGPUs: per-page GPU sets are 64-bit masks, so a
// machine of 1..MaxGPUs GPUs validates and one more is rejected by name.
func TestValidateBoundsNumGPUs(t *testing.T) {
	for _, n := range []int{1, 4, MaxGPUs} {
		m := Default()
		m.NumGPUs = n
		if err := m.Validate(); err != nil {
			t.Fatalf("NumGPUs = %d rejected: %v", n, err)
		}
	}
	for _, n := range []int{0, MaxGPUs + 1, 1000} {
		m := Default()
		m.NumGPUs = n
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), "NumGPUs") {
			t.Fatalf("NumGPUs = %d: err = %v, want a NumGPUs error", n, err)
		}
	}
	m := Default()
	m.NumGPUs = MaxGPUs + 1
	if err := m.Validate(); !strings.Contains(err.Error(), "MaxGPUs") {
		t.Fatalf("error %q does not name MaxGPUs", err)
	}
}
