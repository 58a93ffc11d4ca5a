package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"idyll/internal/experiment"
	"idyll/internal/fault"
	"idyll/internal/integrity"
)

// Client is the typed Go client for an idylld daemon; cmd/idyllctl is a
// thin shell around it, and the fleet coordinator uses it to relay jobs to
// workers. Requests that fail with a retryable status (429 shed, 503
// drain) or a network error are retried under the configured RetryPolicy —
// safe even for submissions, because jobs are content-addressed and
// therefore idempotent.
type Client struct {
	base   string
	hc     *http.Client
	tenant string
	retry  RetryPolicy

	// faults/faultSite arm deterministic fault injection on this client's
	// requests (WithFaults). faultSite names the Err/Delay site; payload
	// mangling uses faultSite+".payload". nil faults = zero overhead.
	faults    *fault.Injector
	faultSite string
}

// ClientOption configures a Client at construction.
type ClientOption func(*Client)

// WithTenant attaches the X-Idyll-Tenant header to every request, feeding
// the server's per-tenant accounting, quotas, and fair-share scheduling.
func WithTenant(tenant string) ClientOption {
	return func(c *Client) { c.tenant = tenant }
}

// WithRetry replaces the default retry policy (DefaultRetry; use NoRetry
// for strict single-attempt behavior).
func WithRetry(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p }
}

// WithHTTPClient replaces the underlying http.Client (tests inject
// httptest transports; the fleet shares a pooled client across workers).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithFaults arms deterministic fault injection on this client: each
// request consults inj at site (network errors, delays), and payloads
// fetched by CacheGet are additionally mangled at site+".payload"
// before checksum verification — which is how the chaos gate proves
// verification actually runs. A nil injector is inert.
func WithFaults(inj *fault.Injector, site string) ClientOption {
	return func(c *Client) { c.faults, c.faultSite = inj, site }
}

// NewClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:8080"). The underlying http.Client has no overall
// timeout — Wait streams events for a job's whole lifetime — so bound calls
// with a context instead.
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base:  strings.TrimRight(base, "/"),
		hc:    &http.Client{},
		retry: DefaultRetry(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the daemon base URL the client targets.
func (c *Client) Base() string { return c.base }

// apiErr decodes a non-2xx response into an *APIError carrying the
// server's message, the status code, and any Retry-After delay.
func apiErr(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	e := &APIError{Status: resp.StatusCode, RetryAfter: retryAfter(resp)}
	var wire apiError
	if json.Unmarshal(body, &wire) == nil && wire.Error != "" {
		e.Msg = wire.Error
	} else {
		e.Msg = string(bytes.TrimSpace(body))
	}
	return e
}

// do executes one HTTP request under the retry policy. Each attempt
// rebuilds the request (bodies are byte slices, so replay is safe). A
// response with a status outside ok is consumed, closed, and surfaced as
// *APIError; otherwise the caller owns resp.Body.
func (c *Client) do(ctx context.Context, method, path string, body []byte,
	hdr map[string]string, ok ...int) (*http.Response, error) {
	var resp *http.Response
	err := c.retry.Do(ctx, func() error {
		if c.faults != nil {
			c.faults.Delay(c.faultSite)
			if err := c.faults.Err(c.faultSite); err != nil {
				return err // a synthetic network error; retryable like one
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.tenant != "" {
			req.Header.Set(HeaderTenant, c.tenant)
		}
		for k, v := range hdr {
			if v != "" {
				req.Header.Set(k, v)
			}
		}
		r, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		for _, code := range ok {
			if r.StatusCode == code {
				resp = r
				return nil
			}
		}
		defer r.Body.Close()
		return apiErr(r)
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil, nil, http.StatusOK)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// SubmitOpts carries per-call fleet metadata attached as headers; the
// zero value submits plainly.
type SubmitOpts struct {
	// Tenant, when non-empty, overrides the client's tenant
	// (X-Idyll-Tenant) for this call: the coordinator relays each job under
	// the tenant it was submitted by.
	Tenant string
	// Hints lists peer base URLs believed to hold this job's result
	// (copyset hints, X-Idyll-Copyset): the worker tries a peer cache
	// fill before recomputing.
	Hints []string
}

func (o SubmitOpts) headers() map[string]string {
	return map[string]string{
		HeaderTenant:  o.Tenant,
		HeaderCopyset: strings.Join(o.Hints, ","),
	}
}

// Submit posts a job spec. The returned status reports whether the job was
// freshly queued, attached to an in-flight duplicate (Deduped), or answered
// directly from the result cache (Cached, Status "done", Result set).
func (c *Client) Submit(ctx context.Context, spec JobSpec) (*JobStatus, error) {
	return c.SubmitWith(ctx, spec, SubmitOpts{})
}

// SubmitWith is Submit plus fleet metadata (copyset hints, peer list).
func (c *Client) SubmitWith(ctx context.Context, spec JobSpec, opts SubmitOpts) (*JobStatus, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", raw, opts.headers(),
		http.StatusOK, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Status fetches a job's current state.
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.getJSON(ctx, "/v1/jobs/"+url.PathEscape(id), &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait blocks until the job reaches a terminal state and returns its final
// status. Progress is streamed over SSE and forwarded to onEvent (which may
// be nil). A mid-stream disconnect is not fatal: Wait checks the job's
// status, then re-establishes the stream with backoff, deduplicating the
// replayed history by event Seq so onEvent sees each event exactly once.
// Servers without SSE degrade to the status polls the loop does anyway.
func (c *Client) Wait(ctx context.Context, id string, onEvent func(Event)) (*JobStatus, error) {
	lastSeq := -1
	dedup := func(ev Event) {
		if ev.Seq <= lastSeq {
			return // replayed history from a resumed stream
		}
		lastSeq = ev.Seq
		if onEvent != nil {
			onEvent(ev)
		}
	}
	delay := 50 * time.Millisecond
	for {
		_ = c.streamEvents(ctx, id, dedup) // nil: terminal event or server close
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		st, err := c.Status(ctx, id)
		switch {
		case err == nil:
			switch st.Status {
			case StatusDone, StatusFailed, StatusCancelled:
				return st, nil
			}
		case !Retryable(err):
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(delay):
		}
		if delay < time.Second {
			delay *= 2
		}
	}
}

// streamEvents consumes the SSE stream until it ends (terminal event or
// server close). A nil return means the stream ended normally. The stream
// itself is not retried here — Wait re-establishes it after checking the
// job's status.
func (c *Client) streamEvents(ctx context.Context, id string, onEvent func(Event)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return err
	}
	if c.tenant != "" {
		req.Header.Set(HeaderTenant, c.tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiErr(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			continue
		}
		if onEvent != nil {
			onEvent(ev)
		}
	}
	return sc.Err()
}

// SubmitAndWait submits a spec and waits for its result, combining Submit's
// cache fast path with Wait.
func (c *Client) SubmitAndWait(ctx context.Context, spec JobSpec, onEvent func(Event)) (*JobStatus, error) {
	return c.SubmitAndWaitWith(ctx, spec, SubmitOpts{}, onEvent)
}

// SubmitAndWaitWith is SubmitAndWait plus fleet metadata.
func (c *Client) SubmitAndWaitWith(ctx context.Context, spec JobSpec, opts SubmitOpts, onEvent func(Event)) (*JobStatus, error) {
	st, err := c.SubmitWith(ctx, spec, opts)
	if err != nil {
		return nil, err
	}
	if st.Status == StatusDone || st.Status == StatusFailed || st.Status == StatusCancelled {
		return st, nil
	}
	return c.Wait(ctx, st.ID, onEvent)
}

// Figure fetches a figure synchronously via GET /v1/figures/{name} and
// parses the resulting table.
func (c *Client) Figure(ctx context.Context, name string, o experiment.Options) (*experiment.Table, error) {
	q := url.Values{}
	if o.CUsPerGPU > 0 {
		q.Set("cus", fmt.Sprint(o.CUsPerGPU))
	}
	if o.AccessesPerCU > 0 {
		q.Set("accesses", fmt.Sprint(o.AccessesPerCU))
	}
	if o.Seed > 0 {
		q.Set("seed", fmt.Sprint(o.Seed))
	}
	if o.CounterThreshold > 0 {
		q.Set("threshold", fmt.Sprint(o.CounterThreshold))
	}
	if o.WarmupAccessesPerCU > 0 {
		q.Set("warmup", fmt.Sprint(o.WarmupAccessesPerCU))
	}
	if len(o.Apps) > 0 {
		q.Set("apps", strings.Join(o.Apps, ","))
	}
	path := "/v1/figures/" + url.PathEscape(name)
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	resp, err := c.do(ctx, http.MethodGet, path, nil, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return experiment.ParseTableJSON(string(raw))
}

// ChecksumError reports a peer-fill payload whose bytes disagree with the
// X-Idyll-Checksum header the server sent: the transfer (or the peer's
// memory) is corrupt, and the bytes must not be used.
type ChecksumError struct {
	Path string // request path the bytes came from
	Want string // digest from the X-Idyll-Checksum header
	Got  string // digest of the received body
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("service: checksum mismatch on %s: header %.12s…, body %.12s…",
		e.Path, e.Want, e.Got)
}

// CacheGet fetches the raw result bytes a peer holds under hash
// (GET /v1/cache/{hash}). ok=false is a clean miss (the peer simply does
// not have it); errors are transport or server failures. Misses are not
// retried — a filler falls through to the next hint.
func (c *Client) CacheGet(ctx context.Context, hash string) ([]byte, bool, error) {
	path := "/v1/cache/" + url.PathEscape(hash)
	resp, err := c.do(ctx, http.MethodGet, path, nil, nil,
		http.StatusOK, http.StatusNotFound)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil, false, nil
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if c.faults != nil {
		data = c.faults.Mangle(c.faultSite+".payload", data)
	}
	// Verify transferred bytes against the server's digest. Servers that
	// predate the header send none; those transfers pass unverified rather
	// than failing the fill.
	if want := resp.Header.Get(HeaderChecksum); want != "" {
		if !integrity.VerifyHex(data, want) {
			return nil, false, &ChecksumError{
				Path: path, Want: strings.TrimSpace(want), Got: integrity.SumHex(data),
			}
		}
	}
	return data, true, nil
}

// FillCache asks the daemon to pull the result under hash from one of
// sources into its local cache (POST /v1/cache/fill) — the replication
// push a coordinator issues after a job computes, so the result survives
// its computing worker's death. present reports the daemon already had it.
func (c *Client) FillCache(ctx context.Context, hash string, sources []string) (filled, present bool, err error) {
	raw, err := json.Marshal(fillRequest{Hash: hash, Sources: sources})
	if err != nil {
		return false, false, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/cache/fill", raw, nil, http.StatusOK)
	if err != nil {
		return false, false, err
	}
	defer resp.Body.Close()
	var out fillResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return false, false, err
	}
	return out.Filled, out.Present, nil
}

// HealthInfo is the decoded GET /healthz payload.
type HealthInfo struct {
	Status       string `json:"status"`
	Draining     bool   `json:"draining"`
	WorkerID     string `json:"worker_id"`
	FleetVersion string `json:"fleet_version"`
}

// Healthz fetches the full health payload — the fleet membership probe
// reads Draining and FleetVersion from it. A prober that supplies its own
// cadence and failure accounting should construct its client with
// WithRetry(NoRetry()).
func (c *Client) Healthz(ctx context.Context) (*HealthInfo, error) {
	var out HealthInfo
	if err := c.getJSON(ctx, "/healthz", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health checks GET /healthz reports "ok".
func (c *Client) Health(ctx context.Context) error {
	h, err := c.Healthz(ctx)
	if err != nil {
		return err
	}
	if h.Status != "ok" {
		return fmt.Errorf("idylld: health status %q", h.Status)
	}
	return nil
}

// MetricsText fetches the raw GET /metrics text exposition (the fleet
// rollup re-serves worker lines verbatim under per-worker labels).
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", nil, nil, http.StatusOK)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// Metrics fetches and parses GET /metrics.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	text, err := c.MetricsText(ctx)
	if err != nil {
		return nil, err
	}
	return ParseMetrics(text)
}
