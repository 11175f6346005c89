GO ?= go

.PHONY: check build vet lint fuzz-seed test race stress-persist stress-atomic stress-feed stress-repl stress-blob stress-fmcad crash-segment bench bench-contention bench-feed bench-repl bench-blob bench-obs clean

## check is the CI gate: a fresh checkout must build, vet (go vet ./...),
## pass jcflint with zero unsuppressed findings, replay the decoder fuzz
## seed corpus, and pass the full test suite under the race detector,
## plus an extra multi-count run of the persistence crash-consistency
## stress test. The race run includes the full crash-state enumeration
## of the segment log (TestSegmentCrashStates). This is what keeps the
## missing-go.mod regression, data races in the sharded OMS kernel, torn
## (oms, framework) snapshot pairs, segment log states that lose an
## acknowledged Put or Delete, diverging replicas, and unguarded replica
## writes from ever landing again.
check: build vet lint fuzz-seed race stress-persist stress-atomic stress-feed stress-repl stress-blob stress-fmcad bench-obs

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint runs jcflint — the repo-specific analyzer suite (stripe lock
## ordering, the guardWrite replica gate, dropped errors, feed-publish
## discipline, internal-alias returns, the declared lock hierarchy AND
## blocking-call allowlist in docs/lock-hierarchy.md, Apply-atomicity
## of jcf entry points, ChangeKind switch exhaustiveness, blocking
## calls under named locks, resource release on every path, and
## wrap-safe sentinel-error handling; see docs/analyzers.md) — and
## requires gofmt-clean sources. The module is loaded once and the 11
## analyzers run concurrently; -time prints the per-analyzer wall time.
## Suppressions take //lint:allow <analyzer> <reason>; the reason is
## mandatory, and known-deliberate sites are pinned loud by
## TestDeliberateBlockingStaysLoud.
lint:
	$(GO) run ./cmd/jcflint -time ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt: the following files need formatting:"; echo "$$fmt_out"; exit 1; fi

## fuzz-seed replays the fuzz seed corpora deterministically (no fuzzing
## engine): every seed the wire-format and frame-codec fuzzers ever
## minimized must keep decoding without panics or round-trip drift, and
## the hand-written FMCAD .meta encoder, cold and with a warm per-cell
## cache, must match encoding/json.
fuzz-seed:
	$(GO) test -run FuzzDecodeChanges ./internal/oms/
	$(GO) test -run FuzzReadFrame ./internal/repl/
	$(GO) test -run FuzzDecodeBlobRef ./internal/oms/blobstore/
	$(GO) test -run FuzzAppendMeta ./internal/fmcad/

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## stress-persist hammers Framework.Save against concurrent designers
## under the race detector: every saved pair must Load and stay mutually
## consistent (see internal/jcf/stress_test.go).
stress-persist:
	$(GO) test -race -count=3 -run 'TestSaveCrashConsistencyUnderLoad|TestDeriveConfigVersionConcurrent' ./internal/jcf/

## stress-atomic hammers the grouped-operation paths under the race
## detector: batches must stay all-or-nothing against concurrent readers
## and CheckInData must only commit while the reservation is held (see
## internal/oms/batch_test.go and internal/jcf/atomic_test.go).
stress-atomic:
	$(GO) test -race -count=3 -run 'TestBatchAtomicUnderConcurrency|TestCheckInDataVsPublishRace|TestDeriveVariantConcurrent' ./internal/oms/ ./internal/jcf/

## stress-feed hammers the change feed under the race detector: every
## committed op must reach a Watch subscriber exactly once in LSN order
## with batch groups delivered whole (internal/oms/feed_test.go), and
## differential saves looping against concurrent designers must always
## load into a consistent pair (internal/jcf/feed_test.go).
stress-feed:
	$(GO) test -race -count=3 -run 'TestFeedConformanceStress|TestDifferentialSaveCrashConsistencyUnderLoad|TestNotifierPublishesFrameworkEvents' ./internal/oms/ ./internal/jcf/

## stress-repl hammers the replication subsystem under the race
## detector: the primary mutates under concurrent load while one replica
## follows from the start and a second bootstraps mid-stream from a
## snapshot, the transport is killed and reconnected twice, corrupt and
## gapped streams are injected — final replica fingerprints must equal
## the primary's and WaitFor barriers must observe the writes they cover
## (internal/repl/repl_test.go, internal/jcf/replica_test.go). Runs over
## both the in-process pipe and real TCP.
stress-repl:
	$(GO) test -race -count=3 -run 'TestReplicationConvergenceUnderLoad|TestReplicaStreamRobustness|TestReplicaReadOnlyView|TestReplicaViewPromote' ./internal/repl/ ./internal/jcf/

## stress-blob hammers the content-addressed checkin pipeline under the
## race detector: concurrent identical-content checkins must dedup to
## one physical copy without cross-wiring versions, Publish must gate on
## async blob durability, and both crash windows (blob-without-metadata,
## metadata-without-blob) must load into verifiable state with orphans
## GC-swept (internal/jcf/blob_test.go); replicas must lazily fetch
## missing blobs by digest (internal/repl/blob_test.go).
stress-blob:
	$(GO) test -race -count=3 -run 'TestStressBlob|TestReplicaBlobFetch' ./internal/jcf/ ./internal/repl/

## stress-fmcad hammers the copy-on-write FMCAD metadata under the race
## detector: sessions open, refresh and read their snapshots while
## designers check out, check in, tag and configure, so any write to a
## published record is a race; of concurrent Creates on one directory
## exactly one must win (internal/fmcad/snapshot_test.go).
stress-fmcad:
	$(GO) test -race -count=3 -run 'TestSessionsReadWhileLibraryMutates|TestConcurrentCreateOneWins|TestPublishedMetaNeverChanges' ./internal/fmcad/

## crash-segment enumerates the crash states of the segment log's commit
## protocol (internal/oms/backend/crash_test.go) over a seeded script in
## short mode: every byte prefix of each operation's frame, zero-filled
## tails, and a kept or lost checkpoint rename at rotation must reopen to
## the state before or after the operation and accept one more Put. A
## quick standalone run; `make check` runs the full enumeration through
## `race`.
crash-segment:
	$(GO) test -short -count=1 -run 'TestSegmentCrashStates' -v ./internal/oms/backend/

## bench regenerates every paper table/figure benchmark.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

## bench-contention runs only the section 3.1/3.6 concurrency benchmarks
## used for the BENCH_*.json perf trajectory.
bench-contention:
	$(GO) test -bench 'BenchmarkE31LockContention|BenchmarkE36MetadataOps' -run '^$$' .

## bench-feed runs the change-feed benchmarks: differential
## Framework.SaveTo on the segment backend as the store grows (equal
## churn per save), plus the Watch delivery latency probe. BENCH_4.json
## froze the full-vs-differential ablation these continue. Record medians.
bench-feed:
	$(GO) test -bench 'BenchmarkE39DifferentialSave' -run '^$$' -benchtime 20x -count 3 .
	$(GO) test -bench 'BenchmarkFeedWatchLatency' -run '^$$' -benchtime 20000x -count 3 .

## bench-repl runs the replication benchmarks behind BENCH_5.json:
## aggregate read throughput at 0 (primary-only baseline) / 1 / 2 / 4
## replicas under a background write load, and commit-to-replica
## visibility lag p50/p99 under sustained writes. Record medians of the
## three counts.
bench-repl:
	$(GO) test -bench 'BenchmarkE40ReplicaReadScaling' -run '^$$' -benchtime 20000x -count 3 .
	$(GO) test -bench 'BenchmarkE41ReplicationLag' -run '^$$' -benchtime 2000x -count 3 .

## bench-blob runs the content-addressed checkin benchmarks behind
## BENCH_6.json: checkin + metadata-commit (differential save) latency
## p50/p99 at 4KiB/256KiB/4MiB, inline baseline vs CAS+async pipeline;
## the dedup ratio on a re-checkin workload; and replication frame bytes
## for a large checkin before/after. Record medians of the three counts.
bench-blob:
	$(GO) test -bench 'BenchmarkE42BlobCheckin' -run '^$$' -benchtime 30x -count 3 .
	$(GO) test -bench 'BenchmarkE42BlobDedup|BenchmarkE42BlobReplFrames' -run '^$$' -benchtime 10x -count 3 .

## bench-obs runs the observability overhead probe behind BENCH_7.json:
## the BENCH_1 contention workload with instrumentation enabled (and a
## live registry) vs stripped at runtime (obs.SetEnabled(false)). Part
## of `make check` with a single short count as a smoke gate (the layer
## must keep building AND keep its cost visibly bounded); record
## medians of `-benchtime 2s -count 5` runs in BENCH_7.json.
bench-obs:
	$(GO) test -bench 'BenchmarkObsOverhead' -run '^$$' -benchtime 1s -count 1 .

clean:
	$(GO) clean ./...
