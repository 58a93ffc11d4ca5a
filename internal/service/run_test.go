package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// tinySpec is a real cell simulation small enough for unit tests.
func tinySpec() JobSpec {
	return JobSpec{
		Kind: "cell", App: "PR", Scheme: "idyll",
		Options: json.RawMessage(`{"cus_per_gpu":2,"accesses_per_cu":50,"counter_threshold":1}`),
	}
}

// TestRunSpecDeterministic runs a real tiny cell twice and demands
// byte-identical payloads — the property the content-addressed cache
// depends on.
func TestRunSpecDeterministic(t *testing.T) {
	canon := mustCanon(t, tinySpec())
	ctx := context.Background()
	a, err := RunSpec(ctx, canon, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSpec(ctx, canon, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("RunSpec not deterministic:\n a=%s\n b=%s", a, b)
	}
	var res CellResult
	if err := json.Unmarshal(a, &res); err != nil {
		t.Fatalf("result not a CellResult: %v\n%s", err, a)
	}
	if res.App != "PR" || res.Scheme != "idyll" || res.ExecCycles <= 0 || res.Accesses == 0 {
		t.Errorf("implausible cell result: %+v", res)
	}
}

// TestRunSpecCancellation proves a real simulation stops between event-loop
// batches when its context is cancelled.
func TestRunSpecCancellation(t *testing.T) {
	canon := mustCanon(t, JobSpec{
		Kind: "cell", App: "PR", Scheme: "idyll",
		Options: json.RawMessage(`{"cus_per_gpu":8,"accesses_per_cu":2000}`),
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run starts: must not complete
	if _, err := RunSpec(ctx, canon, nil); err == nil {
		t.Fatal("RunSpec completed despite a cancelled context")
	}
}

// TestServiceEndToEndRealRunner exercises the full daemon path with the
// default runner: submit a tiny real cell, wait, resubmit, and require a
// byte-identical cache hit.
func TestServiceEndToEndRealRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	first, err := c.SubmitAndWait(ctx, tinySpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != StatusDone {
		t.Fatalf("first run = %+v", first)
	}
	second, err := c.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Errorf("resubmission missed the cache: %+v", second)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Errorf("cached result differs from computed result")
	}
}

// TestDaemonWarmupCheckpointCounts replays CI's checkpoint-gate daemon step
// in process: fig11 at 2 CUs, 60 accesses and a 30-access warmup, first for
// PR and then for PR,KM, on one server with a disk-backed checkpoint store.
// The first job stores PR's six warmups (6 misses); the second forks PR's
// cells from them (6 hits) and stores KM's (6 misses). Forking changes no
// byte: each job's result equals a cold server's.
func TestDaemonWarmupCheckpointCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	figure := func(c *Client, apps string) []byte {
		t.Helper()
		resp, err := http.Get(c.Base() + "/v1/figures/fig11?cus=2&accesses=60&warmup=30&apps=" + apps)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("fig11 apps=%s: %d %s (%v)", apps, resp.StatusCode, body, err)
		}
		return body
	}
	_, c := newTestServer(t, Config{Workers: 1, CkptDir: t.TempDir()})
	jobs := []string{"PR", "PR,KM"}
	var warm [][]byte
	for _, apps := range jobs {
		warm = append(warm, figure(c, apps))
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m["idylld_ckpt_misses"] != 12 || m["idylld_ckpt_hits"] != 6 {
		t.Errorf("ckpt misses/hits = %v/%v, want 12/6", m["idylld_ckpt_misses"], m["idylld_ckpt_hits"])
	}
	for i, apps := range jobs {
		_, cold := newTestServer(t, Config{Workers: 1})
		if got := figure(cold, apps); !bytes.Equal(warm[i], got) {
			t.Errorf("fig11 apps=%s differs from a cold server's:\nwarm: %s\ncold: %s", apps, warm[i], got)
		}
	}
}
