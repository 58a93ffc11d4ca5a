package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as the idyllsim CLI.
func TestMain(m *testing.M) {
	if os.Getenv("IDYLLSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNonPositiveGeometryRejected: a zero or negative -gpus, -cus or
// -accesses exits 1 with one line naming the flag, before any simulation
// runs, instead of reaching the trace generator's panic.
func TestNonPositiveGeometryRejected(t *testing.T) {
	for _, name := range []string{"gpus", "cus", "accesses"} {
		for _, v := range []int{0, -1} {
			t.Run(fmt.Sprintf("%s=%d", name, v), func(t *testing.T) {
				cmd := exec.Command(os.Args[0], "-cus", "1", "-accesses", "10", fmt.Sprintf("-%s=%d", name, v))
				cmd.Env = append(os.Environ(), "IDYLLSIM_RUN_MAIN=1")
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				err := cmd.Run()
				var exit *exec.ExitError
				if !errors.As(err, &exit) || exit.ExitCode() != 1 {
					t.Fatalf("exit = %v, want status 1 (stderr: %s)", err, stderr.String())
				}
				msg := strings.TrimSuffix(stderr.String(), "\n")
				if strings.Contains(msg, "\n") || !strings.Contains(msg, "-"+name) {
					t.Fatalf("stderr is not one line naming -%s: %q", name, stderr.String())
				}
				if stdout.Len() != 0 {
					t.Fatalf("a simulation ran despite -%s=%d: %q", name, v, stdout.String())
				}
			})
		}
	}
}

// TestTooManyGPUsRejected: the sharing tracker and the invalidation
// directory keep one bit per GPU in a uint64, so -gpus above
// config.MaxGPUs exits 1 with one line naming the bound instead of running
// with GPUs silently dropped from Figure 4's accessor masks.
func TestTooManyGPUsRejected(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-gpus", "65", "-cus", "1", "-accesses", "10")
	cmd.Env = append(os.Environ(), "IDYLLSIM_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1 (stderr: %s)", err, stderr.String())
	}
	msg := strings.TrimSuffix(stderr.String(), "\n")
	if strings.Contains(msg, "\n") || !strings.Contains(msg, "NumGPUs = 65") ||
		!strings.Contains(msg, "MaxGPUs") {
		t.Fatalf("stderr is not one line naming the GPU bound: %q", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("a simulation ran with 65 GPUs: %q", stdout.String())
	}
}
