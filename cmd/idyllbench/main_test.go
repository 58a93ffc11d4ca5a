package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as the idyllbench CLI.
func TestMain(m *testing.M) {
	if os.Getenv("IDYLLBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownFormatRejected: an unknown -format exits 1 naming the valid
// set, before any experiment runs (nothing reaches stdout).
func TestUnknownFormatRejected(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-fig", "fig11", "-cus", "1", "-accesses", "10", "-quiet", "-format", "xml")
	cmd.Env = append(os.Environ(), "IDYLLBENCH_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1 (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "text, csv, json") {
		t.Fatalf("stderr does not name the valid formats: %q", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("an experiment ran before the format was rejected: %q", stdout.String())
	}
}
