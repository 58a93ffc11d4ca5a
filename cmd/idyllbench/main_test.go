package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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

// TestUnusableCkptDirRejected: a -ckpt-dir that cannot be a directory (here
// a regular file) exits 1 naming the path, instead of running with nothing
// persisted.
func TestUnusableCkptDirRejected(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-fig", "fig11", "-cus", "2", "-accesses", "40",
		"-warmup", "20", "-quiet", "-ckpt-dir", file)
	cmd.Env = append(os.Environ(), "IDYLLBENCH_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1 (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), file) {
		t.Fatalf("stderr does not name the path: %q", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("an experiment ran despite the unusable -ckpt-dir: %q", stdout.String())
	}
}
