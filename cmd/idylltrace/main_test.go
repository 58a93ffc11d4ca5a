package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"idyll/internal/workload"
)

// TestMain lets a test re-execute this binary as the idylltrace CLI.
func TestMain(m *testing.M) {
	if os.Getenv("IDYLLTRACE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cli runs the idylltrace CLI with args and returns its stdout, stderr and
// exit status.
func cli(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "IDYLLTRACE_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("idylltrace %s: %v", strings.Join(args, " "), err)
	}
	return out.Bytes(), errb.Bytes(), code
}

// runMain runs the idylltrace CLI with args and returns its stdout, failing
// the test on a non-zero exit.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	stdout, stderr, code := cli(t, args...)
	if code != 0 {
		t.Fatalf("idylltrace %s: exit %d (stderr: %s)", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

// TestGenNonPositiveGeometryRejected: gen with a zero or negative -gpus,
// -cus or -accesses exits 1 with one line naming the flag and writes no
// file, instead of reaching the trace generator's panic.
func TestGenNonPositiveGeometryRejected(t *testing.T) {
	for _, name := range []string{"gpus", "cus", "accesses"} {
		for _, v := range []int{0, -1} {
			t.Run(fmt.Sprintf("%s=%d", name, v), func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "x.trace")
				stdout, stderr, code := cli(t, "gen", "-cus", "1", "-accesses", "10",
					fmt.Sprintf("-%s=%d", name, v), "-out", out)
				if code != 1 {
					t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr)
				}
				msg := strings.TrimSuffix(string(stderr), "\n")
				if strings.Contains(msg, "\n") || !strings.Contains(msg, "-"+name) {
					t.Fatalf("stderr is not one line naming -%s: %q", name, stderr)
				}
				if len(stdout) != 0 {
					t.Fatalf("gen reported output despite -%s=%d: %q", name, v, stdout)
				}
				if _, err := os.Stat(out); err == nil {
					t.Fatal("gen wrote a trace file")
				}
			})
		}
	}
}

// TestInfoEmptyTrace: info on a readable trace with no accesses (one GPU
// with no CUs) reports 0% writes, not NaN.
func TestInfoEmptyTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.trace")
	tr := &workload.Trace{Params: workload.Params{Abbr: "E"}, NumGPUs: 1,
		Accesses: [][][]workload.Access{{}}}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out := string(runMain(t, "info", path))
	if !strings.Contains(out, "accesses:    0 (0.0% writes)") || strings.Contains(out, "NaN") {
		t.Fatalf("info on an empty trace:\n%s", out)
	}
}
