GO ?= go

.PHONY: check build vet lint fuzz-seed test race stress-persist stress-atomic stress-feed stress-repl stress-blob stress-fmcad crash-segment bench bench-contention bench-obs clean

## check is the CI gate: a fresh checkout must build, vet (go vet ./...),
## pass jcflint with zero unsuppressed findings, replay the decoder fuzz
## seed corpus, and pass the full test suite under the race detector,
## plus an extra multi-count run of the persistence crash-consistency
## stress test. The race run includes the full crash-state enumeration
## of the segment log (TestSegmentCrashStates). This is what keeps the
## missing-go.mod regression, data races in the sharded OMS kernel, saves
## that do not load, segment log states that lose an acknowledged Put or
## Delete, diverging replicas (framework metadata included), and
## unguarded replica writes from ever landing again.
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
## mandatory, and TestDeliberateBlockingStaysLoud pins that an annotated
## site stays detected while its directive silences it.
lint:
	$(GO) run ./cmd/jcflint -time ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt: the following files need formatting:"; echo "$$fmt_out"; exit 1; fi

## fuzz-seed replays the fuzz seed corpora deterministically (no fuzzing
## engine): every seed the wire-format and frame-codec fuzzers ever
## minimized must keep decoding without panics or round-trip drift, and
## a seed in an older format (JSON) must be refused as one; a base
## snapshot that decodes must re-encode to bytes that decode to the same
## store; a base folded with
## an overlay checkpoint must match a full snapshot and a plain-map
## model; and the hand-written FMCAD .meta encoder must match
## encoding/json, and a journal record replayed over the root it was
## built on must give the root it records.
fuzz-seed:
	$(GO) test -run FuzzDecodeChanges ./internal/oms/
	$(GO) test -run FuzzDecodeSnapshot ./internal/oms/
	$(GO) test -run FuzzMergeCheckpoint ./internal/oms/
	$(GO) test -run FuzzReadFrame ./internal/repl/
	$(GO) test -run FuzzDecodeBlobRef ./internal/oms/blobstore/
	$(GO) test -run FuzzAppendMeta ./internal/fmcad/

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## stress-persist hammers Framework.Save against concurrent designers
## under the race detector: every save must Load, with every reservation
## naming a registered user (see internal/jcf/stress_test.go); and
## seeded random histories saved as delta, overlay and full epochs must
## each load back byte-equal at the same feed position, also from the
## disk a crash before any backend Put or Delete leaves behind (see
## internal/jcf/checkpoint_test.go); and a hybrid whose master is
## committed after each step of NewCellVersion must reload with every
## binding whole and every bound cell version answering BindingFor, a
## slave cell stranded by a lost master save must be adopted by the next
## NewCellVersion unless it holds tool output (see
## internal/core/persist_test.go), and SyncLibrary must import a direct
## checkin saved before a reload and, looping against concurrent tool
## runs, put every master version on exactly one slave version, and a
## tool run's capture commits the master first: a refused master
## checkin leaves no slave version, and a failed slave checkin releases
## the checkout and is imported, tagged, by the next SyncLibrary (see
## internal/core/feedsync_test.go); and a differential save must continue
## only from a CURRENT holding exactly the bytes this framework last
## committed, so a rewritten or failed commit is followed by a save that
## loads back whole (see internal/jcf/anchor_test.go); and loading a
## state dir that does not exist must create nothing; and a state dir in
## the File backend's layout must be refused with ErrOldFormat by every
## entry point, `replicad serve` included, with nothing written, while
## Save(dir) leaves no file open and SaveTo through a File backend is
## differential (see internal/jcf/statedir_test.go).
stress-persist:
	$(GO) test -race -count=3 -run 'TestSaveCrashConsistencyUnderLoad|TestDeriveConfigVersionConcurrent|TestReloadEquivalenceModel|TestCheckpointCrashStates|TestBindingCrashStates|TestSaveAnchorsOnCommittedBytes|TestSaveAfterFailedCommit|TestSaveRewritesIndentedCURRENTCompact|TestLoadMissingDirCreatesNothing|TestLoadHybridMissingDirCreatesNothing|TestFileLayoutStateDirIsRefused|TestServeRefusesFileLayoutStateDir|TestSaveDirRoundTripClosesFiles|TestFileBackendSavesAreDifferential|TestNewCellVersionAdoptsStrandedSlaveCell|TestNewCellVersionRefusesStrandedToolOutput|TestSyncLibraryAfterReloadImportsEarlierCheckin|TestSyncLibraryConcurrentWithToolRuns|TestFailedMasterCheckinLeavesNoSlaveVersion|TestFailedSlaveCheckinIsImportedBySync' ./internal/jcf/ ./internal/core/ ./cmd/replicad/

## stress-atomic hammers the grouped-operation paths under the race
## detector: batches must stay all-or-nothing against concurrent readers
## and CheckInData must only commit while the reservation is held (see
## internal/oms/batch_test.go and internal/jcf/atomic_test.go). It also
## pins the newest-version lookup: a checkin derives from and numbers
## after the highest-OID version, costs as many store ops at history 512
## as at 8, and CheckConsistency reports versions not numbered 1..n in
## OID order (internal/jcf/history_test.go, consistency_test.go).
stress-atomic:
	$(GO) test -race -count=3 -run 'TestBatchAtomicUnderConcurrency|TestCheckInDataVsPublishRace|TestDeriveVariantConcurrent|TestCheckInDataDerivesFromNewest|TestCheckInDataOpsFlatInHistory|TestCheckConsistencyReportsVersionOrder' ./internal/oms/ ./internal/jcf/

## stress-feed hammers the change feed under the race detector: every
## committed op must reach a Watch subscriber exactly once in LSN order
## with batch groups delivered whole (internal/oms/feed_test.go), and
## differential saves looping against concurrent designers must always
## load (internal/jcf/feed_test.go). The binary change-record codec must
## round-trip seeded random feeds to equal records and equal bytes, and
## refuse every truncated or malformed payload (internal/oms/wire_test.go).
stress-feed:
	$(GO) test -race -count=3 -run 'TestFeedConformanceStress|TestDifferentialSaveCrashConsistencyUnderLoad|TestNotifierPublishesFrameworkEvents|TestChangeCodecModel|TestDecodeChangesRobustness' ./internal/oms/ ./internal/jcf/

## stress-repl hammers the replication subsystem under the race
## detector: the primary mutates under concurrent load while one replica
## follows from the start and a second bootstraps mid-stream from a
## snapshot, the transport is killed and reconnected twice, corrupt and
## gapped streams are injected — final replica fingerprints must equal
## the primary's and WaitFor barriers must observe the writes they cover
## (internal/repl/repl_test.go, internal/jcf/replica_test.go); flows,
## reservations, typed hierarchies and shares must read the same on a
## replica view, after promotion and after a reload; a hybrid attached
## to a replica view must answer the Table 1 mapping as the primary does,
## for bindings committed after it attached and after promotion
## (internal/core/replica_test.go); and a fresh replica of a primary
## restored by LoadFrom (full, differential, overlay and segment-v1
## fixture state dirs) must converge in one session; a committed chain
## whose base or delta is an older state dir's JSON must not be shipped:
## the publisher falls back to a live snapshot and the replica converges
## in one session, and LoadFrom must refuse every older on-disk format
## without writing; and each change frame's
## encode and decode must be timed. Runs over both the in-process pipe
## and real TCP.
stress-repl:
	$(GO) test -race -count=3 -run 'TestReplicationConvergenceUnderLoad|TestReplicaStreamRobustness|TestReplicaReadOnlyView|TestReplicaViewPromote|TestReplicaAnswersFrameworkMetadata|TestRestoredPrimaryServesFreshReplica|TestReplicaAnswersMapping|TestChainBootstrapFallsBackFromOldFormat|TestLoadRefusesOldFormats|TestCodecHistogramsPerChangeFrame' ./internal/repl/ ./internal/jcf/ ./internal/core/

## stress-blob hammers the content-addressed checkin pipeline under the
## race detector: concurrent identical-content checkins must dedup to
## one physical copy without cross-wiring versions, Publish must gate on
## async blob durability, and both crash windows (blob-without-metadata,
## metadata-without-blob) must load into verifiable state with orphans
## GC-swept (internal/jcf/blob_test.go); replicas must lazily fetch
## missing blobs by digest (internal/repl/blob_test.go). The Publish gate
## must check every version's ref — a dangling one behind 300 inline
## versions still refuses after a reload — while allocating as often at
## history 512 as at 8, and publishing must count no design bytes as
## read out (internal/jcf/history_test.go).
stress-blob:
	$(GO) test -race -count=3 -run 'TestStressBlob|TestReplicaBlobFetch|TestPublishGateCoversOldVersions|TestPublishAllocsFlatInHistory|TestBlobLogicalOutCountsHandedOutBytes' ./internal/jcf/ ./internal/repl/

## stress-fmcad hammers the copy-on-write FMCAD metadata under the race
## detector: sessions open, refresh and read their snapshots while
## designers check out, check in, tag and configure, so any write to a
## published record is a race; of concurrent Creates on one directory
## exactly one must win; and after every op of a seeded sequence, failed
## journal appends, torn appends and failed checkpoints included, a fresh
## Open must load the published root (internal/fmcad/snapshot_test.go).
## It then checks the .meta.log journal (internal/fmcad/journal_test.go):
## a Checkout, Checkin, SetProperty and tagged Checkin record and the
## checkpoints per 1,000 commits must not grow from 8 to 512 versions; a journal whose
## header names another .meta must be ignored; a journal of the older
## whole-cell records (testdata/parent-journal) must replay exactly; and,
## in short mode, every byte prefix of a record (a checkin carrying
## properties is one record), zero-filled tails, and a
## checkpoint's rename kept or lost before the log's truncate must open
## to the root after the last whole record and accept one more mutation.
## `make check` runs the full crash-state enumeration through `race`.
stress-fmcad:
	$(GO) test -race -count=3 -run 'TestSessionsReadWhileLibraryMutates|TestConcurrentCreateOneWins|TestPublishedMetaNeverChanges' ./internal/fmcad/
	$(GO) test -race -short -count=1 -run 'TestMetaLogCrashStates|TestJournalRecordFlatInHistory|TestJournalHeaderNamesCheckpoint|TestOpenParentJournal' ./internal/fmcad/

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
