#!/bin/sh
# ci.sh — the checks a change must pass before merging.
#
#   gofmt       every Go file is gofmt-clean
#   go vet      static checks
#   go build    every package compiles
#   go test     full unit + property + differential suite
#   go test -race   the packages with concurrency: the sharded stage ③
#                   analysis (internal/hawkset, exercised from the root
#                   package's app-workload differential test), the
#                   cooperative scheduler (internal/sched) and the runtime
#                   state its coroutine handoffs must order (internal/pmrt),
#                   the crash-injection campaign's guarded recovery probes
#                   (internal/crashinject), the ingestion daemon
#                   (internal/pmcheckd: concurrent tenants, fault-injected
#                   reconnects, drain/recovery), and the site table two
#                   goroutines share (internal/sites)
#   benchmark   the pipeline benchmark's own module, which the root
#               go test ./... does not reach
#   arm64       vet and build for a non-amd64 target, so the fallback of
#               the amd64-only frame-pointer site key keeps compiling (go vet
#               on amd64 already checks the assembly's frame and arg sizes)
#   go test -bench  one iteration of every benchmark — a smoke test that
#                   the benchmark harness still compiles and runs, not a
#                   performance measurement — plus a targeted iteration of
#                   the sequential stage ③ (workers=1, i.e. GOMAXPROCS=1),
#                   so the single-shard path stays runnable end to end
#   oracle fuzz  30 s of FuzzAnalyzeVsOracle beyond its seed corpus (which
#                go test already runs): generated programs whose reports
#                Analyze must match against the brute-force Definition-1
#                oracle, which shares no code with the replayer
#   pmlint      static PM-misuse checks over the pmrt API; the committed
#               baseline records the intentional findings (the apps embed
#               the paper's Table 2 bugs), so only NEW findings fail
#   pmcheck     bounded crash-point fault-injection smoke: the seeded
#               (buggy) builds must fail crash points (pmcheck exits with
#               the failing-app count), the fixed builds must sweep clean.
#               Covers Fast-Fair and P-Masstree plus the MadFS-POSIX
#               filesystem scenario, whose syscall-level oracles (rename
#               atomicity, torn appends, orphaned inodes) gate both seeded
#               protocol bugs under -budget/-deadline bounds
#   pmcheckd    bounded daemon smoke: start the ingestion daemon on a unix
#               socket, stream one instrumented app trace through the
#               network client with -verify (the daemon's report must be
#               byte-identical to the offline Analyze of the same trace),
#               then SIGTERM-drain and require a clean exit 0
#   pmopt       flush/fence redundancy smoke on two apps: the JSON report
#               must be byte-identical across two runs (the determinism
#               invariant CI relies on), and one bounded -apply must elide
#               the P-Masstree top-tier site with every safety gate (race
#               byte-identity, full crash sweep, journal-aligned image
#               differential) green — pmopt exits 1 on any gate failure
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test ./...
go test -race . ./internal/hawkset ./internal/sched ./internal/pmrt ./internal/crashinject ./internal/pmcheckd ./internal/sites
(cd benchmark && go test ./...)
GOARCH=arm64 go vet ./internal/sites ./internal/pmrt
GOARCH=arm64 go build ./...
go test -run '^$' -bench . -benchtime 1x ./...
go test -run '^$' -bench 'BenchmarkParallelAnalysis/.*/workers=1$' -benchtime 1x .
go test -run '^$' -fuzz '^FuzzAnalyzeVsOracle$' -fuzztime 30s ./internal/hawkset
go run ./cmd/pmlint -baseline pmlint.baseline ./...

# Trace round-trip smoke: a stored trace must BE the trace. Capture once
# plain and once flate-compressed, re-analyze the file through the streaming
# decoder, and require the JSON report to be byte-identical to the in-process
# analysis of the same run; dump the committed v1 fixtures so the CLIs' v1
# read path keeps running end to end, and require the big one's summary
# line (its thread IDs reach MaxInt32, so a thread count taken as the
# largest ID plus one overflows); analyze the big one too, which must finish
# (replay memory follows the thread count, not the largest thread ID); then
# one targeted iteration of the codec benchmark so the decode path stays
# runnable under the harness.
TRACE_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP"' EXIT
for flags in "" "-trace-compress"; do
    # shellcheck disable=SC2086 # $flags intentionally splits into flags
    go run ./cmd/hawkset -app Fast-Fair -ops 1000 -seed 7 \
        -trace-out "$TRACE_TMP/t.hwkt" $flags \
        -json "$TRACE_TMP/inproc.json"
    go run ./cmd/hawkset -app Fast-Fair -ops 1000 -seed 7 \
        -trace-in "$TRACE_TMP/t.hwkt" -json "$TRACE_TMP/file.json"
    diff "$TRACE_TMP/inproc.json" "$TRACE_TMP/file.json"
    go run ./cmd/tracedump -head 3 "$TRACE_TMP/t.hwkt" > /dev/null
done
go run ./cmd/tracedump internal/trace/testdata/golden_v1.hwkt > /dev/null
go run ./cmd/tracedump internal/trace/testdata/golden_v1_big.hwkt |
    grep -F '2010 events, 9 threads'
go run ./cmd/hawkset -trace-in internal/trace/testdata/golden_v1_big.hwkt |
    grep -Fx 'loaded trace (format v1): 2010 events'
go test -run '^$' -bench 'BenchmarkTraceCodec/decode' -benchtime 1x .

if go run ./cmd/pmcheck -app Fast-Fair -ops 800 -inject -budget 8 -deadline 60s; then
    echo "ci: buggy Fast-Fair crash campaign unexpectedly clean" >&2
    exit 1
fi
go run ./cmd/pmcheck -app Fast-Fair -ops 800 -fixed -inject -budget 8 -deadline 60s
go run ./cmd/pmcheck -app P-Masstree -ops 800 -fixed -inject -strategy fence -budget 8 -deadline 60s

# Filesystem crash-sweep smoke: both seeded FS protocol bugs must surface
# under the bounded targeted campaign; the journaled/ordered fixed variant
# must sweep clean.
if go run ./cmd/pmcheck -app MadFS-POSIX -ops 600 -inject -budget 8 -deadline 60s; then
    echo "ci: buggy MadFS-POSIX crash campaign unexpectedly clean" >&2
    exit 1
fi
go run ./cmd/pmcheck -app MadFS-POSIX -ops 600 -fixed -inject -budget 8 -deadline 60s

# pmopt smoke: deterministic JSON on two apps, then one gated elimination.
PMOPT_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP" "$PMOPT_TMP"' EXIT
for app in P-ART P-Masstree; do
    go run ./cmd/pmopt -app "$app" -ops 400 -seed 1 -json > "$PMOPT_TMP/$app.1.json"
    go run ./cmd/pmopt -app "$app" -ops 400 -seed 1 -json > "$PMOPT_TMP/$app.2.json"
    diff "$PMOPT_TMP/$app.1.json" "$PMOPT_TMP/$app.2.json"
done
go run ./cmd/pmopt -app P-Masstree -ops 400 -seed 1 -apply -budget 8

# pmcheckd daemon smoke: stream through the daemon, diff against offline
# Analyze (-verify), SIGTERM-drain, assert clean exit.
PMCHECKD_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP" "$PMOPT_TMP" "$PMCHECKD_TMP"' EXIT
go build -o "$PMCHECKD_TMP/" ./cmd/pmcheckd ./cmd/pmcheck
"$PMCHECKD_TMP/pmcheckd" -listen "unix:$PMCHECKD_TMP/d.sock" \
    -dir "$PMCHECKD_TMP/store" -tenant-table &
PMCHECKD_PID=$!
i=0
while [ ! -S "$PMCHECKD_TMP/d.sock" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "ci: pmcheckd never listened" >&2; exit 1; }
    sleep 0.1
done
"$PMCHECKD_TMP/pmcheck" -remote "unix:$PMCHECKD_TMP/d.sock" \
    -app Fast-Fair -ops 800 -verify
kill -TERM "$PMCHECKD_PID"
wait "$PMCHECKD_PID"
