#!/usr/bin/env bash
# vet.sh — run every static check CI runs, the same way CI runs it:
#
#   scripts/vet.sh            # gofmt + go vet + idyllvet + analyzer and contract tests
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

# idyllvet covers every package of the deterministic core
# (analysis.CorePackages: the simulator packages, internal/sim/pdes and
# internal/config included, with no exemptions). -counts prints the
# per-check finding tally so a clean run still shows what was actually
# checked.
echo "== idyllvet (determinism + service-layer contracts) =="
go run ./cmd/idyllvet -counts ./...

# The analyzers' golden suites, and the root contract test that bans time,
# math/rand and sync in the core and keeps the core's module imports inside
# the core. CI runs both as part of go test -race ./...
echo "== analyzer test suite + core import contract =="
go test ./internal/analysis/...
go test -run '^TestCoreImportsStayDeterministic$' .

echo "vet.sh: all checks passed"
