#!/usr/bin/env bash
# vet.sh — run every static check CI runs, the same way CI runs it:
#
#   scripts/vet.sh            # gofmt + go vet + idyllvet + analyzer tests
#
# go vet runs over ./... (which covers cmd/... and internal/profiling) and
# then explicitly over the paths that historically risk being skipped when
# patterns change, so a future narrowing of the main pattern cannot
# silently drop them. No build-tagged files exist in this repository, so
# the default tag set is the only combination CI needs; if tags are ever
# introduced, add the matching `go vet -tags` lines here and in ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go vet ./cmd/... ./internal/profiling (explicit, anti-skip) =="
go vet ./cmd/... ./internal/profiling

# idyllvet covers every package of the deterministic core, internal/sim/pdes
# included, with no exemptions. -counts prints the per-check finding tally
# so a clean run still shows what was actually checked.
echo "== idyllvet (determinism + service-layer contracts) =="
go run ./cmd/idyllvet -counts ./...

# The committed baseline must be a fixed point of -write-baseline: if
# regenerating it changes the file, either a fixed finding is still
# grandfathered or a new finding was baselined without review. CI runs the
# same gate in the idyllvet-pass job.
echo "== idyllvet baseline freshness =="
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
cp .idyllvet-baseline "$tmp"
go run ./cmd/idyllvet -write-baseline ./... >/dev/null
if ! diff -u "$tmp" .idyllvet-baseline; then
    echo "idyllvet baseline is stale: commit the regenerated .idyllvet-baseline" >&2
    exit 1
fi

echo "== analyzer test suite =="
go test ./internal/analysis/...

echo "vet.sh: all checks passed"
