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
#                   performance measurement; it includes BenchmarkRun (the
#                   instrumented run alone), BenchmarkReplay (replay ①/②,
#                   which captures the inputs of all four pipeline
#                   workloads once) and BenchmarkAnalyze (stage ③ on the
#                   same four inputs, captured once) — plus a targeted
#                   iteration of the sequential stage ③ (workers=1, i.e.
#                   GOMAXPROCS=1), so the single-shard path stays runnable
#                   end to end
#   oracle fuzz  30 s of FuzzAnalyzeVsOracle beyond its seed corpus (which
#                go test already runs): generated programs, with PM
#                allocations among their operations, whose reports Analyze
#                must match against the brute-force Definition-1 oracle,
#                which shares no code with the replayer, under the paper's
#                configuration, its ablations, StoreStore, EADR and
#                AllocAware; then 30 s of FuzzAppsVsOracle, which holds
#                Analyze to the same oracle on the apps' own traces, up to
#                200 operations of any app, seed and variant, with
#                AllocAware off and on
#   trace fuzz   15 s of FuzzTraceAppend beyond its seed corpus: any
#                sequence of events, with any field values, appended to a
#                Trace must come back from Events exactly, and Len must
#                count it, whether an event packs into a 16-byte record or
#                spills whole, on both sides of a chunk boundary
#   input fuzz   15 s each of the two decoders that read outside input,
#                beyond their seed corpora (which include the committed v2
#                fixtures golden_v2_big.hwkt and golden_v2_edge_segment.hex):
#                FuzzDecode (trace files: no panic, no unbounded allocation,
#                and an accepted trace re-encodes to itself) and FuzzWire
#                (pmcheckd frames, segments and segment-log records: no
#                panic, no unbounded allocation)
#   pmlint      static PM-misuse checks over the pmrt API; the committed
#               baseline records the intentional findings (the apps embed
#               the paper's Table 2 bugs), so only NEW findings fail
#   pmcheck     bounded crash-point fault-injection smoke: the seeded
#               (buggy) builds must fail crash points, the fixed builds must
#               sweep clean. pmcheck exits with the failing-app count and
#               with 101 on an error, so a run that must find failures has
#               to exit 1-100; the binary is built once and run directly,
#               because go run reports every non-zero exit as 1 and a crash
#               would pass as a finding. Covers Fast-Fair and P-Masstree,
#               -all over every app's end-of-run crash image (buggy must
#               fail, fixed must be clean), plus the MadFS-POSIX
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
#               invariant CI relies on), and a bounded -apply on each must
#               elide its top-tier site (P-Masstree: 28 ops, P-ART: 1,216)
#               with every safety gate (race byte-identity, full crash
#               sweep, device-op reduction, journal-aligned image
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
go test -run '^$' -fuzz '^FuzzAppsVsOracle$' -fuzztime 30s ./internal/hawkset
go test -run '^$' -fuzz '^FuzzTraceAppend$' -fuzztime 15s ./internal/trace
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 15s ./internal/trace
go test -run '^$' -fuzz '^FuzzWire$' -fuzztime 15s ./internal/pmcheckd
go run ./cmd/pmlint -baseline pmlint.baseline ./...

# Trace round-trip smoke: a stored trace must BE the trace. Capture once
# plain and once flate-compressed, re-analyze the file through the streaming
# decoder, and require the JSON report to be byte-identical to the in-process
# analysis of the same run; dump the committed v2 fixture golden_v2_big.hwkt
# and require its summary line (its thread IDs reach MaxInt32, so a thread
# count taken as the largest ID plus one overflows); analyze it too, which
# must finish (replay memory follows the thread count, not the largest
# thread ID); then one targeted iteration of the codec benchmark so the
# decode path stays runnable under the harness.
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
go run ./cmd/tracedump internal/trace/testdata/golden_v2_big.hwkt |
    grep -F '2010 events, 9 threads'
go run ./cmd/hawkset -trace-in internal/trace/testdata/golden_v2_big.hwkt |
    grep -Fx 'loaded trace: 2010 events'
go test -run '^$' -bench 'BenchmarkTraceCodec/decode' -benchtime 1x .

# pmcheck crash smoke. expect_failing requires the failing-app count as
# the exit status (1-100), so a pmcheck error (101) fails CI.
PMCHECK_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP" "$PMCHECK_TMP"' EXIT
go build -o "$PMCHECK_TMP/" ./cmd/pmcheck ./cmd/pmcheckd
PMCHECK="$PMCHECK_TMP/pmcheck"
expect_failing() {
    rc=0
    "$PMCHECK" "$@" || rc=$?
    if [ "$rc" -lt 1 ] || [ "$rc" -gt 100 ]; then
        echo "ci: pmcheck $* exited $rc, want 1-100 failing apps" >&2
        exit 1
    fi
}
expect_failing -app Fast-Fair -ops 800 -inject -budget 8 -deadline 60s
"$PMCHECK" -app Fast-Fair -ops 800 -fixed -inject -budget 8 -deadline 60s
"$PMCHECK" -app P-Masstree -ops 800 -fixed -inject -strategy fence -budget 8 -deadline 60s
expect_failing -all -ops 800
"$PMCHECK" -all -ops 800 -fixed

# Filesystem crash-sweep smoke: both seeded FS protocol bugs must surface
# under the bounded targeted campaign; the journaled/ordered fixed variant
# must sweep clean.
expect_failing -app MadFS-POSIX -ops 600 -inject -budget 8 -deadline 60s
"$PMCHECK" -app MadFS-POSIX -ops 600 -fixed -inject -budget 8 -deadline 60s

# pmopt smoke: deterministic JSON on two apps, then a gated elimination on
# each.
PMOPT_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP" "$PMCHECK_TMP" "$PMOPT_TMP"' EXIT
for app in P-ART P-Masstree; do
    go run ./cmd/pmopt -app "$app" -ops 400 -seed 1 -json > "$PMOPT_TMP/$app.1.json"
    go run ./cmd/pmopt -app "$app" -ops 400 -seed 1 -json > "$PMOPT_TMP/$app.2.json"
    diff "$PMOPT_TMP/$app.1.json" "$PMOPT_TMP/$app.2.json"
done
go run ./cmd/pmopt -app P-Masstree -ops 400 -seed 1 -apply -budget 8
go run ./cmd/pmopt -app P-ART -ops 400 -seed 1 -apply -budget 8

# pmcheckd daemon smoke: stream through the daemon, diff against offline
# Analyze (-verify), SIGTERM-drain, assert clean exit.
"$PMCHECK_TMP/pmcheckd" -listen "unix:$PMCHECK_TMP/d.sock" \
    -dir "$PMCHECK_TMP/store" -tenant-table &
PMCHECKD_PID=$!
i=0
while [ ! -S "$PMCHECK_TMP/d.sock" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "ci: pmcheckd never listened" >&2; exit 1; }
    sleep 0.1
done
"$PMCHECK" -remote "unix:$PMCHECK_TMP/d.sock" \
    -app Fast-Fair -ops 800 -verify
kill -TERM "$PMCHECKD_PID"
wait "$PMCHECKD_PID"
