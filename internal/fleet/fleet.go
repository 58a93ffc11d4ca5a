// Package fleet shards the idylld simulation service across machines: a
// coordinator routes content-addressed job specs to workers by rendezvous
// hashing, tracks which workers hold which results (copysets), and lets a
// worker that misses its cache pull the bytes from a peer instead of
// recomputing. The whole design leans on one property the rest of the repo
// machine-checks: results are byte-identical for a given spec hash, so any
// peer's bytes for a hash are THE bytes, and replication is merely an
// availability optimization, never a correctness question.
//
// The layering keeps internal/service fleet-agnostic: service exposes
// generic extension points (the Runner, the PeerFill hook, the
// X-Idyll-* headers) and fleet plugs into them. The coordinator itself IS a
// service.Server — it reuses the cache, weighted fair-share queue,
// singleflight, SSE streaming, drain, and shedding machinery, with a
// dispatching Runner injected.
package fleet

import (
	"fmt"
	"strings"
)

// VersionString identifies the fleet wire protocol. Versioning rules
// (docs/API.md): the major number after the slash must match exactly for a
// coordinator and worker to interoperate; additions within a major version
// must be backward compatible (new headers and response fields are ignored
// by older peers, never required).
const VersionString = "idyll-fleet/1"

// CheckVersion reports whether a peer advertising version v can
// interoperate with this build. An empty v is rejected: fleet members must
// be started with an explicit fleet identity (idylld -worker).
func CheckVersion(v string) error {
	if v == VersionString || strings.HasPrefix(v, VersionString+".") {
		return nil
	}
	return fmt.Errorf("fleet: incompatible protocol %q, need %s", v, VersionString)
}

// JoinRequest is the body of POST /v1/fleet/join: a worker announcing
// itself to the coordinator.
type JoinRequest struct {
	ID      string `json:"id"`
	URL     string `json:"url"`
	Version string `json:"version"`
}

// JoinResponse acknowledges a join.
type JoinResponse struct {
	OK bool `json:"ok"`
}

// WorkerInfo is one fleet member's externally visible state
// (GET /v1/fleet/status).
type WorkerInfo struct {
	ID      string `json:"id"`
	URL     string `json:"url"`
	State   string `json:"state"`
	Fails   int    `json:"fails,omitempty"`
	Breaker string `json:"breaker,omitempty"`
}

// StatusResponse is the GET /v1/fleet/status payload.
type StatusResponse struct {
	Version    string       `json:"version"`
	Workers    []WorkerInfo `json:"workers"`
	Copysets   int          `json:"copysets"`
	QueueDepth int          `json:"queue_depth"`
}
