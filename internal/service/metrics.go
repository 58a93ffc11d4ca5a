package service

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"idyll/internal/sim"
	"idyll/internal/stats"
)

// MetricKeys is the registry of every metric name the daemon and the fleet
// coordinator expose: plain counters, labeled-counter base names, gauges
// sampled at render time, and the latency summary lines. The /metrics text
// is a contract surface — the fleet rollup, the CI smoke tests, and
// dashboards grep it by name — so the idyllvet metricreg check enforces
// this list in both directions: a literal key incremented anywhere in
// internal/service or internal/fleet must appear here, and every entry here
// must be backed by code. Entries ending in "*" register a runtime-built
// family by prefix (e.g. fleet_results_<source>). Keep the list sorted.
var MetricKeys = []string{
	"cache_corrupt_quarantined",
	"cache_disk_hits",
	"cache_entries",
	"cache_hits",
	"cache_misses",
	"cache_verify_failures",
	"ckpt_corrupt_quarantined",
	"ckpt_disk_hits",
	"ckpt_entries",
	"ckpt_hits",
	"ckpt_misses",
	"ckpt_verify_failures",
	"faults_injected",
	"faults_injected_site",
	"fleet_breaker_trips",
	"fleet_breaker_trips_worker",
	"fleet_degraded_local_runs",
	"fleet_jobs_dispatched",
	"fleet_replications",
	"fleet_reroutes",
	"fleet_results_*",
	"job_latency_count",
	"job_latency_mean_us",
	"job_latency_p50_us",
	"job_latency_p99_us",
	"job_panics",
	"jobs_accepted",
	"jobs_cancelled",
	"jobs_completed",
	"jobs_deduped",
	"jobs_failed",
	"jobs_inflight",
	"jobs_shed",
	"jobs_tracked",
	"peer_fill_misses",
	"peer_fills",
	"peer_serve_misses",
	"peer_serves",
	"peer_verify_failures",
	"queue_depth",
	"scrape_error",
	"tenant_jobs_accepted",
	"tenant_jobs_completed",
	"tenant_jobs_shed",
}

// Metrics aggregates the daemon's operational counters, exposed as plain
// text on GET /metrics (one "name value" pair per line, prometheus-style
// names without the type annotations). Safe for concurrent use.
type Metrics struct {
	mu sync.Mutex

	counters map[string]uint64
	// latency holds completed-job wall time in microseconds; the power-of-
	// two bucketing of stats.Latency is plenty for p50/p99 of jobs whose
	// durations span micro- (cache hit) to many seconds (figure run).
	latency stats.Latency
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{counters: make(map[string]uint64)}
}

// Inc adds delta to the named counter.
func (m *Metrics) Inc(name string, delta uint64) {
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// IncLabeled adds delta to the counter name{label="value"} — the one-label
// prometheus-style form used for per-tenant and per-worker breakdowns. The
// label value is sanitized so arbitrary header input cannot break the
// line-oriented format.
func (m *Metrics) IncLabeled(name, label, value string, delta uint64) {
	m.Inc(LabelKey(name, label, value), delta)
}

// LabelKey renders the canonical labeled-counter key. Label values are
// clipped to 64 bytes and stripped of characters that would corrupt the
// text exposition (quotes, braces, whitespace).
func LabelKey(name, label, value string) string {
	var b strings.Builder
	for _, r := range value {
		switch {
		case r == '"' || r == '{' || r == '}' || r == '\\',
			r == ' ' || r == '\n' || r == '\r' || r == '\t':
			b.WriteByte('_')
		default:
			b.WriteRune(r)
		}
		if b.Len() >= 64 {
			break
		}
	}
	return name + `{` + label + `="` + b.String() + `"}`
}

// Set overwrites the named counter (used to mirror cache statistics).
func (m *Metrics) Set(name string, v uint64) {
	m.mu.Lock()
	m.counters[name] = v
	m.mu.Unlock()
}

// Counter reads one counter's current value.
func (m *Metrics) Counter(name string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// ObserveJobLatency records one completed job's wall time.
func (m *Metrics) ObserveJobLatency(d time.Duration) {
	m.mu.Lock()
	m.latency.Add(sim.VTime(d.Microseconds()))
	m.mu.Unlock()
}

// Render emits every counter plus latency percentiles as one
// "idylld_<name> <value>" line each, sorted by metric *name* — not by
// formatted line — so the order is a pure function of the key set and can
// never shift as values grow. Byte-stable output is a contract here: the
// fleet rollup and the CI gates diff and grep this text, so map-order or
// value-dependent ordering would be diff noise at best and a flaky gate at
// worst (RenderMetricLines has the regression test). gauges carries
// point-in-time values (queue depth, in-flight) the server samples at
// render time.
func (m *Metrics) Render(gauges map[string]int) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	vals := make(map[string]string, len(m.counters)+len(gauges)+4)
	for name, v := range m.counters {
		vals[name] = fmt.Sprintf("%d", v)
	}
	for name, v := range gauges {
		vals[name] = fmt.Sprintf("%d", v)
	}
	vals["job_latency_count"] = fmt.Sprintf("%d", m.latency.Count)
	vals["job_latency_mean_us"] = fmt.Sprintf("%.0f", m.latency.Mean())
	vals["job_latency_p50_us"] = fmt.Sprintf("%d", m.latency.Percentile(50))
	vals["job_latency_p99_us"] = fmt.Sprintf("%d", m.latency.Percentile(99))
	return RenderMetricLines("idylld_", vals)
}

// RenderMetricLines formats a name→value map as sorted "prefix<name> value"
// lines, the shared text-exposition renderer for the daemon's /metrics and
// the fleet coordinator's rollup. Keys are sorted with sort.Strings before
// values are attached, so the line order is independent of both map
// iteration order and the values themselves.
func RenderMetricLines(prefix string, vals map[string]string) string {
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString(prefix)
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(vals[name])
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseMetrics decodes a Render payload back into a name→value map — the
// client-side half, used by idyllctl and the CI smoke test to assert on
// cache-hit counters.
func ParseMetrics(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("service: bad metrics line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(value, "%g", &v); err != nil {
			return nil, fmt.Errorf("service: bad metrics value %q: %w", line, err)
		}
		out[name] = v
	}
	return out, nil
}
