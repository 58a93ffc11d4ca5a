package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The service path is driven only through the idylld binary's flags and its
// HTTP API (docs/API.md), so the benchmark survives refactors behind them.

// Fleet shape: one coordinator and two workers on loopback. Cache sizes sit
// below the catalogue's working set so that every tier (coordinator
// memory, worker memory, worker disk, peer) is exercised.
const (
	coordCacheEntries  = 64
	workerCacheEntries = 48
	workerCkptEntries  = 8
	fleetWorkers       = 2
)

// daemon is one running idylld process.
type daemon struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
}

// startDaemon launches idylld on a free loopback port and waits until it
// has written its bound address.
func startDaemon(ctx context.Context, bin, dir, name string, args ...string) (*daemon, error) {
	addrFile := filepath.Join(dir, name+".addr")
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-quiet"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// One scheduler thread per daemon: three daemons stand in for three
	// machines, and unpinned they would oversubscribe the cores they share
	// with the load generator, which shows up as run-to-run tail swings.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, log: logf}
	deadline := time.Now().Add(20 * time.Second)
	for {
		raw, err := os.ReadFile(addrFile)
		if err == nil && strings.TrimSpace(string(raw)) != "" {
			d.url = "http://" + strings.TrimSpace(string(raw))
			return d, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("%s did not report its address", name)
		}
		time.Sleep(setupPoll)
	}
}

// setupPoll is how often set-up checks whether a daemon is up; it is well
// below a daemon's start time so that setup_s measures the daemons, not the
// polling.
const setupPoll = 500 * time.Microsecond

// stop sends SIGTERM (idylld drains and exits 0) and waits, killing the
// process if it has not exited within ten seconds.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(10*time.Second, func() { d.cmd.Process.Kill() })
	d.cmd.Wait()
	kill.Stop()
	d.log.Close()
}

// fleet is a coordinator plus its workers, each with its own cache and
// checkpoint directories.
type fleet struct {
	dir     string
	coord   *daemon
	workers []*daemon
}

func (f *fleet) all() []*daemon { return append([]*daemon{f.coord}, f.workers...) }

// startFleet launches the coordinator, then workers that join it, and
// returns once every member answers /healthz and the coordinator lists
// every worker as alive.
func startFleet(ctx context.Context, bin, dir string, hc *http.Client, coordEntries int) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	var err error
	f.coord, err = startDaemon(ctx, bin, dir, "coord", "-coordinator",
		"-cache-entries", strconv.Itoa(coordEntries), "-replicas", "2",
		"-probe-interval", "250ms")
	if err != nil {
		return nil, err
	}
	for i := 1; i <= fleetWorkers; i++ {
		id := fmt.Sprintf("w%d", i)
		w, err := startDaemon(ctx, bin, dir, id, "-worker", "-fleet-id", id,
			"-join", f.coord.url, "-workers", "1",
			"-cache-dir", filepath.Join(dir, id, "cache"),
			"-ckpt-dir", filepath.Join(dir, id, "ckpt"),
			"-cache-entries", strconv.Itoa(workerCacheEntries),
			"-ckpt-entries", strconv.Itoa(workerCkptEntries))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	if err := f.waitReady(ctx, hc); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) waitReady(ctx context.Context, hc *http.Client) error {
	deadline := time.Now().Add(20 * time.Second)
	for _, d := range f.all() {
		for {
			resp, err := hc.Get(d.url + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) || ctx.Err() != nil {
				return fmt.Errorf("%s not healthy", d.name)
			}
			time.Sleep(setupPoll)
		}
	}
	for {
		var st struct {
			Workers []struct {
				ID    string `json:"id"`
				State string `json:"state"`
			} `json:"workers"`
		}
		if err := getJSON(hc, f.coord.url+"/v1/fleet/status", &st); err == nil {
			alive := 0
			for _, w := range st.Workers {
				if w.State == "alive" {
					alive++
				}
			}
			if alive == len(f.workers) {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return errors.New("workers did not join the coordinator")
		}
		time.Sleep(setupPoll)
	}
}

// peakRSSMB sums the members' peak resident sets.
func (f *fleet) peakRSSMB() float64 {
	total := 0.0
	for _, d := range f.all() {
		total += peakRSSMB(d.cmd.Process.Pid)
	}
	return total
}

// stop drains every member, workers first, and removes the fleet's files.
func (f *fleet) stop() {
	for _, w := range f.workers {
		w.stop()
	}
	if f.coord != nil {
		f.coord.stop()
	}
	os.RemoveAll(f.dir)
}

// newHTTPClient bounds the load generator to conns keep-alive connections.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     30 * time.Second,
		},
	}
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// jobStatus is the subset of idylld's job status the benchmark reads.
type jobStatus struct {
	ID     string          `json:"id"`
	Hash   string          `json:"hash"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// submitAndWait posts a job spec and waits for its result: directly when
// the submission is answered from the coordinator's cache, otherwise by
// polling the job's status until it is terminal. Each HTTP call is recorded
// as a child span of parent.
func submitAndWait(ctx context.Context, hc *http.Client, base string, spec []byte, t *tracer, parent, req int64) (jobStatus, error) {
	var st jobStatus
	err := t.timed("idylld POST /v1/jobs", parent, req, func() error {
		r, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(spec))
		if err != nil {
			return err
		}
		r.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(r)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			body, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		}
		return json.NewDecoder(resp.Body).Decode(&st)
	})
	deadline := time.Now().Add(waitTimeout)
	for poll := 0; err == nil && !terminal(st.Status); poll++ {
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s after %v", st.ID, st.Status, waitTimeout)
		}
		select {
		case <-time.After(pollDelay(poll)):
		case <-ctx.Done():
			return st, ctx.Err()
		}
		err = t.timed("idylld GET /v1/jobs/{id}", parent, req, func() error {
			return getJSON(hc, base+"/v1/jobs/"+st.ID, &st)
		})
	}
	return st, err
}

// A queued job is polled rather than followed on its event stream: a stream
// would hold one of the load generator's few connections for the whole
// wait, and every request due meanwhile would queue behind it. The delay
// doubles every two polls up to 4 ms, so relay hits are seen within a
// millisecond or two while a backlog of misses does not turn into a flood
// of polls that slows the fleet it is waiting on.
func pollDelay(poll int) time.Duration {
	return time.Millisecond << min(poll/2, 2)
}

const waitTimeout = 60 * time.Second

func terminal(status string) bool {
	return status == "done" || status == "failed" || status == "cancelled"
}

// scrapeMetrics reads a /metrics document into name{labels} → value.
func scrapeMetrics(hc *http.Client, url string) (map[string]float64, error) {
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sumPrefix adds every metric whose name starts with prefix (labeled series
// of one family).
func sumPrefix(m map[string]float64, prefix string) float64 {
	t := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}
