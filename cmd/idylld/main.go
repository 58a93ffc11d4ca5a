// Command idylld is the simulation-as-a-service daemon: it accepts
// simulation jobs over HTTP (single cells or whole registry figures), runs
// them on a bounded worker pool, and serves results from a content-addressed
// cache — duplicate submissions dedupe onto one execution and repeat
// queries answer in microseconds.
//
// Usage:
//
//	idylld                                  # listen on :8080
//	idylld -addr 127.0.0.1:0 -addr-file a   # random port, written to file
//	idylld -cache-dir /var/cache/idyll      # persist results across restarts
//
// Fleet mode shards the service across machines (see docs/API.md):
//
//	idylld -worker -fleet-id w1 -addr :8081          # one fleet worker
//	idylld -worker -fleet-id w2 -addr :8082
//	idylld -coordinator -fleet-workers \
//	    w1=http://host1:8081,w2=http://host2:8082    # the front door
//
// A worker pulls results from its peers before recomputing (peer cache
// fill); the coordinator routes jobs by rendezvous hashing over the spec's
// content address, replicates results, and serves a fleet-wide /metrics
// rollup. Every role schedules its backlog by weighted fair share across
// tenants (-tenant-weights, -tenant-quota).
//
// SIGTERM/SIGINT drains gracefully: submissions answer 503, queued and
// in-flight jobs finish (or are cancelled after -drain-timeout), the HTTP
// listener closes, and the process exits 0. A draining worker keeps serving
// its peer cache endpoints so the rest of the fleet can absorb its results.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"idyll/internal/fault"
	"idyll/internal/fleet"
	"idyll/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		addrFile     = flag.String("addr-file", "", "write the bound address to this file once listening")
		workers      = flag.Int("workers", 0, "concurrent jobs (0 = all cores)")
		queueDepth   = flag.Int("queue", 64, "accepted-but-not-running job backlog before shedding with 429")
		cacheEntries = flag.Int("cache-entries", 256, "in-memory result cache size")
		cacheDir     = flag.String("cache-dir", "", "persist results to this directory (empty = memory only)")
		ckptEntries  = flag.Int("ckpt-entries", 64, "in-memory warmup-checkpoint cache size")
		ckptDir      = flag.String("ckpt-dir", "", "persist warmup checkpoints to this directory (empty = memory only)")
		ttl          = flag.Duration("ttl", 15*time.Minute, "how long finished job records stay queryable")
		maxBody      = flag.Int64("max-body", 1<<20, "request body size limit in bytes")
		jobTimeout   = flag.Duration("job-timeout", 10*time.Minute, "per-job run-time cap")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits before cancelling in-flight jobs")
		quiet        = flag.Bool("quiet", false, "suppress operational logging")
		faultSpec    = flag.String("fault-spec", "", "deterministic fault-injection schedule, e.g. 'seed=7;cache.disk.read:bitflip:count=1' (empty = disabled)")

		// Tenancy: every role schedules its backlog by weighted fair share.
		tenantWeights = flag.String("tenant-weights", "", "comma-separated tenant=weight fair-share weights")
		tenantQuota   = flag.Int("tenant-quota", 0, "per-tenant queued-job cap (0 = no cap)")

		// Fleet: worker side.
		workerMode = flag.Bool("worker", false, "run as a fleet worker (peer cache fill enabled)")
		fleetID    = flag.String("fleet-id", "", "stable fleet member name (required with -worker)")
		selfURL    = flag.String("self-url", "", "this worker's externally reachable base URL (default http://<bound addr>)")
		joinURL    = flag.String("join", "", "coordinator base URL to announce this worker to at startup")

		// Fleet: coordinator side.
		coordMode     = flag.Bool("coordinator", false, "run as the fleet coordinator (routes jobs to workers)")
		fleetWorkers  = flag.String("fleet-workers", "", "comma-separated id=url worker list for -coordinator")
		replicas      = flag.Int("replicas", 2, "result copyset size the coordinator replicates toward")
		probeEvery    = flag.Duration("probe-interval", time.Second, "worker heartbeat cadence")
		brCooldown    = flag.Duration("breaker-cooldown", 15*time.Second, "how long a tripped breaker stays open before one half-open trial dispatch")
		degradedLocal = flag.Bool("degraded-local", true, "run jobs on the coordinator itself when zero workers are routable")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "idylld: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *coordMode && *workerMode {
		fmt.Fprintln(os.Stderr, "idylld: -coordinator and -worker are mutually exclusive")
		os.Exit(2)
	}
	if *workerMode && *fleetID == "" {
		fmt.Fprintln(os.Stderr, "idylld: -worker requires -fleet-id")
		os.Exit(2)
	}

	weights, err := parseTenantWeights(*tenantWeights)
	if err != nil {
		fmt.Fprintln(os.Stderr, "idylld:", err)
		os.Exit(2)
	}

	logf := log.New(os.Stderr, "idylld: ", log.LstdFlags).Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	faults, err := fault.Parse(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "idylld:", err)
		os.Exit(2)
	}
	if faults != nil {
		logf("FAULT INJECTION ARMED: %s", faults.Schedule())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "idylld:", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, bound); err != nil {
			fmt.Fprintln(os.Stderr, "idylld:", err)
			os.Exit(1)
		}
	}

	// drain is invoked once on SIGTERM/SIGINT; handler serves the API.
	var handler http.Handler
	var drain func(context.Context) error

	switch {
	case *coordMode:
		addrs, err := parseFleetWorkers(*fleetWorkers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "idylld:", err)
			os.Exit(2)
		}
		fcfg := fleet.Config{
			Workers:         addrs,
			TenantWeights:   weights,
			TenantQuota:     *tenantQuota,
			QueueDepth:      *queueDepth,
			Replicas:        *replicas,
			ProbeInterval:   *probeEvery,
			CacheEntries:    *cacheEntries,
			CacheDir:        *cacheDir,
			BreakerCooldown: *brCooldown,
			Faults:          faults,
			Logf:            logf,
		}
		if *degradedLocal {
			fcfg.LocalRunner = service.RunSpec
		}
		coord, err := fleet.NewCoordinator(fcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "idylld:", err)
			os.Exit(1)
		}
		handler = coord.Handler()
		drain = coord.Drain
		logf("coordinator listening on %s (%s, %d workers, replicas=%d)",
			bound, fleet.VersionString, len(addrs), *replicas)

	default:
		cfg := service.Config{
			Workers:       *workers,
			QueueDepth:    *queueDepth,
			TenantWeights: weights,
			TenantQuota:   *tenantQuota,
			CacheEntries:  *cacheEntries,
			CacheDir:      *cacheDir,
			CkptEntries:   *ckptEntries,
			CkptDir:       *ckptDir,
			TTL:           *ttl,
			MaxBodyBytes:  *maxBody,
			JobTimeout:    *jobTimeout,
			Faults:        faults,
			Logf:          logf,
		}
		var filler *fleet.Filler
		if *workerMode {
			self := *selfURL
			if self == "" {
				self = "http://" + bound
			}
			filler = fleet.NewFiller(self)
			filler.SetFaults(faults)
			cfg.PeerFill = filler.ResultFill
			cfg.FleetID = *fleetID
			cfg.FleetVersion = fleet.VersionString
		}
		srv, err := service.NewServer(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "idylld:", err)
			os.Exit(1)
		}
		if filler != nil {
			filler.SetMetrics(srv.Metrics())
		}
		handler = srv.Handler()
		drain = srv.Drain
		if *workerMode {
			logf("worker %s listening on %s (%s)", *fleetID, bound, fleet.VersionString)
			if *joinURL != "" {
				self := *selfURL
				if self == "" {
					self = "http://" + bound
				}
				if err := announce(*joinURL, *fleetID, self); err != nil {
					logf("join %s: %v (coordinator can still add this worker statically)", *joinURL, err)
				} else {
					logf("joined fleet at %s", *joinURL)
				}
			}
		} else {
			logf("listening on %s (workers=%d queue=%d cache=%d dir=%q)",
				bound, *workers, *queueDepth, *cacheEntries, *cacheDir)
		}
	}

	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logf("received %v, draining", sig)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "idylld:", err)
		os.Exit(1)
	}

	// Graceful drain: stop accepting jobs first (so in-flight HTTP requests
	// observe 503 rather than connection resets), let work finish, then
	// close the listener. Peer cache endpoints serve until the very end.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := drain(drainCtx); err != nil {
		logf("drain: in-flight jobs cancelled: %v", err)
	} else {
		logf("drained cleanly")
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("http shutdown: %v", err)
	}
	logf("exit")
}

// announce POSTs a fleet join request to the coordinator.
func announce(coordinator, id, self string) error {
	body, err := json.Marshal(fleet.JoinRequest{ID: id, URL: self, Version: fleet.VersionString})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(coordinator, "/")+"/v1/fleet/join", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("join: HTTP %d", resp.StatusCode)
	}
	return nil
}

// parseFleetWorkers decodes "w1=http://host:port,w2=..." into worker
// addresses.
func parseFleetWorkers(s string) ([]fleet.WorkerAddr, error) {
	var out []fleet.WorkerAddr
	for _, part := range splitNonEmpty(s) {
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("idylld: -fleet-workers entry %q, want id=url", part)
		}
		out = append(out, fleet.WorkerAddr{ID: id, URL: url})
	}
	return out, nil
}

// parseTenantWeights decodes "alice=3,bob=1" into fair-share weights.
func parseTenantWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, part := range splitNonEmpty(s) {
		name, val, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("idylld: -tenant-weights entry %q, want tenant=weight", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("idylld: -tenant-weights %q: weight must be a positive number", part)
		}
		out[name] = w
	}
	return out, nil
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// writeAddrFile writes the bound address atomically so a watcher (the CI
// smoke test, a supervisor) never reads a half-written file.
func writeAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
