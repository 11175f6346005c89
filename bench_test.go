// Package repro's root benchmark suite regenerates every table and figure
// of the paper under testing.B. One benchmark per artifact:
//
//	BenchmarkTable1Mapping         Table 1 (object mapping round-trip)
//	BenchmarkFigure1JCFModel       Figure 1 (JCF information architecture)
//	BenchmarkFigure2FMCADModel     Figure 2 (FMCAD information architecture)
//	BenchmarkE31LockContention*    section 3.1 (concurrency control;
//	                               *Parallel = goroutine-per-designer)
//	BenchmarkE32ConsistencyCheck   section 3.2 (design management)
//	BenchmarkE33HierarchySubmit    section 3.3 (hierarchy handling)
//	BenchmarkE35FlowEnforcement    section 3.5 (flow management)
//	BenchmarkE36MetadataOps*       section 3.6 (metadata performance;
//	                               *Parallel = concurrent designers)
//	BenchmarkE36DesignData*        section 3.6 (design-data performance)
//	BenchmarkE37SnapshotWriterStall  writer p99 latency during a concurrent
//	                               consistent-cut snapshot save (not a paper
//	                               artifact; BENCH_2.json froze its ablation)
//	BenchmarkE38BatchCheckin       batched checkin under concurrent designers
//	                               (BENCH_3.json froze its op-by-op ablation)
//	BenchmarkE39DifferentialSave   differential SaveTo as the store grows
//	                               (BENCH_4.json froze its full-save ablation)
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/jcf"
	"repro/internal/obs"
	"repro/internal/oms"
	"repro/internal/oms/backend"
	"repro/internal/otod"
)

// BenchmarkTable1Mapping regenerates Table 1 and verifies the live
// mapping round-trips (experiment T1).
func BenchmarkTable1Mapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunT1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1JCFModel rebuilds and renders the Figure 1 model.
func BenchmarkFigure1JCFModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := otod.JCFModel()
		if _, err := m.Schema(); err != nil {
			b.Fatal(err)
		}
		if len(m.Render()) == 0 {
			b.Fatal("empty render")
		}
	}
}

// BenchmarkFigure2FMCADModel rebuilds and renders the Figure 2 model.
func BenchmarkFigure2FMCADModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := otod.FMCADModel()
		if _, err := m.Schema(); err != nil {
			b.Fatal(err)
		}
		if len(m.Render()) == 0 {
			b.Fatal("empty render")
		}
	}
}

// benchDesigners is the team-size sweep the contention benchmarks share.
var benchDesigners = []int{4, 16, 64}

// BenchmarkE31LockContentionFMCAD runs the section 3.1 contention
// workload against one shared FMCAD library.
func BenchmarkE31LockContentionFMCAD(b *testing.B) {
	for _, n := range benchDesigners {
		b.Run(fmt.Sprintf("designers=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := experiments.FMCADContention(n, 4, 25); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE31LockContentionHybrid runs the same workload through the
// hybrid framework's workspaces and parallel versions.
func BenchmarkE31LockContentionHybrid(b *testing.B) {
	for _, n := range benchDesigners {
		b.Run(fmt.Sprintf("designers=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := experiments.HybridContention(n, 4, 25); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE31LockContentionParallel runs the hybrid workload with every
// designer as a real goroutine against the one shared OMS database — the
// contention probe for the lock-striped kernel. The world is built once
// per team size so the timed region is database traffic, not library and
// file-system setup.
func BenchmarkE31LockContentionParallel(b *testing.B) {
	for _, n := range benchDesigners {
		b.Run(fmt.Sprintf("designers=%d", n), func(b *testing.B) {
			world, err := experiments.NewContentionWorld(n, 4)
			if err != nil {
				b.Fatal(err)
			}
			defer world.Cleanup()
			// Warm up so the version pool reaches steady state and the
			// timed loop measures contention, not version derivation.
			if _, _, _, err := world.RunSteps(25); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blocked, _, _, err := world.RunSteps(25)
				if err != nil {
					b.Fatal(err)
				}
				if blocked != 0 {
					b.Fatalf("hybrid blocked %d steps", blocked)
				}
			}
		})
	}
}

// BenchmarkE31LockContentionOMS hits the OMS kernel directly with the
// section 3.1 shape: designers share one database but work on disjoint
// cells (that is the whole point of per-cell-version workspaces), so each
// designer goroutine runs reservation-style traffic — attribute reads and
// writes, relationship link/unlink, occasional name lookups — against its
// own objects. This is the purest before/after probe for the lock-striped
// kernel: with one global mutex every operation serializes; with striping
// disjoint designers never contend.
func BenchmarkE31LockContentionOMS(b *testing.B) {
	for _, n := range benchDesigners {
		b.Run(fmt.Sprintf("designers=%d", n), func(b *testing.B) {
			schema := oms.NewSchema()
			if err := schema.AddClass("User",
				oms.AttrDef{Name: "name", Kind: oms.KindString, Required: true}); err != nil {
				b.Fatal(err)
			}
			if err := schema.AddClass("CellVersion",
				oms.AttrDef{Name: "num", Kind: oms.KindInt, Required: true},
				oms.AttrDef{Name: "published", Kind: oms.KindBool}); err != nil {
				b.Fatal(err)
			}
			if err := schema.AddRel(oms.RelDef{Name: "reserves", From: "User", To: "CellVersion",
				FromCard: oms.Many, ToCard: oms.Many}); err != nil {
				b.Fatal(err)
			}
			st := oms.NewStore(schema)
			users := make([]oms.OID, n)
			cvs := make([]oms.OID, n*4)
			for d := 0; d < n; d++ {
				u, err := st.Create("User", map[string]oms.Value{"name": oms.S(fmt.Sprintf("u%d", d))})
				if err != nil {
					b.Fatal(err)
				}
				users[d] = u
			}
			// One chip design's worth of accumulated metadata: thousands
			// of versions beyond the handful each designer touches. The
			// by-name Reserve lookup must not pay for them.
			for i := 0; i < 5000; i++ {
				if _, err := st.Create("CellVersion", map[string]oms.Value{"num": oms.I(int64(1000 + i))}); err != nil {
					b.Fatal(err)
				}
			}
			for i := range cvs {
				cv, err := st.Create("CellVersion", map[string]oms.Value{"num": oms.I(int64(i))})
				if err != nil {
					b.Fatal(err)
				}
				cvs[i] = cv
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for d := 0; d < n; d++ {
					wg.Add(1)
					go func(d int) {
						defer wg.Done()
						name := oms.S(fmt.Sprintf("u%d", d))
						user := users[d]
						for s := 0; s < 20; s++ {
							// Each designer works their own four cell
							// versions — the disjoint-cells regime of
							// section 3.1.
							cv := cvs[d*4+s%4]
							if s%10 == 0 {
								// Occasional desktop lookup by name (a
								// session resolving its identity).
								hits := st.FindByAttr("User", "name", name)
								if len(hits) != 1 {
									b.Errorf("user lookup: %v", hits)
									return
								}
							}
							_ = st.GetBool(cv, "published")
							if err := st.Link("reserves", user, cv); err != nil {
								b.Errorf("link: %v", err)
								return
							}
							_ = st.Targets("reserves", user)
							if err := st.Set(cv, "published", oms.B(s%2 == 0)); err != nil {
								b.Errorf("set: %v", err)
								return
							}
							_ = st.GetInt(cv, "num")
							if err := st.Unlink("reserves", user, cv); err != nil {
								b.Errorf("unlink: %v", err)
								return
							}
						}
					}(d)
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkObsOverhead measures what the observability layer costs on
// the hot path: the BENCH_1 lock-contention workload (16 designers,
// disjoint cells, one shared store) with instrumentation enabled and
// registered versus stripped at runtime (obs.SetEnabled(false) turns
// every timer into a zero-value no-op). The enabled/stripped delta is
// the registry's overhead budget, recorded in BENCH_7.json; the
// acceptance bar is <= 5%.
func BenchmarkObsOverhead(b *testing.B) {
	defer obs.SetEnabled(true)
	const designers = 16
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"enabled", true}, {"stripped", false}} {
		b.Run(mode.name, func(b *testing.B) {
			obs.SetEnabled(mode.enabled)
			schema := oms.NewSchema()
			if err := schema.AddClass("User",
				oms.AttrDef{Name: "name", Kind: oms.KindString, Required: true}); err != nil {
				b.Fatal(err)
			}
			if err := schema.AddClass("CellVersion",
				oms.AttrDef{Name: "num", Kind: oms.KindInt, Required: true},
				oms.AttrDef{Name: "published", Kind: oms.KindBool}); err != nil {
				b.Fatal(err)
			}
			if err := schema.AddRel(oms.RelDef{Name: "reserves", From: "User", To: "CellVersion",
				FromCard: oms.Many, ToCard: oms.Many}); err != nil {
				b.Fatal(err)
			}
			st := oms.NewStore(schema)
			if mode.enabled {
				st.RegisterMetrics(obs.NewRegistry())
			}
			users := make([]oms.OID, designers)
			cvs := make([]oms.OID, designers*4)
			for d := range users {
				u, err := st.Create("User", map[string]oms.Value{"name": oms.S(fmt.Sprintf("u%d", d))})
				if err != nil {
					b.Fatal(err)
				}
				users[d] = u
			}
			for i := range cvs {
				cv, err := st.Create("CellVersion", map[string]oms.Value{"num": oms.I(int64(i))})
				if err != nil {
					b.Fatal(err)
				}
				cvs[i] = cv
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for d := 0; d < designers; d++ {
					wg.Add(1)
					go func(d int) {
						defer wg.Done()
						user := users[d]
						for s := 0; s < 20; s++ {
							cv := cvs[d*4+s%4]
							_ = st.GetBool(cv, "published")
							if err := st.Link("reserves", user, cv); err != nil {
								b.Errorf("link: %v", err)
								return
							}
							if err := st.Set(cv, "published", oms.B(s%2 == 0)); err != nil {
								b.Errorf("set: %v", err)
								return
							}
							_ = st.GetInt(cv, "num")
							if err := st.Unlink("reserves", user, cv); err != nil {
								b.Errorf("unlink: %v", err)
								return
							}
						}
					}(d)
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkE32ConsistencyCheck measures the master's consistency sweep on
// a populated project (section 3.2).
func BenchmarkE32ConsistencyCheck(b *testing.B) {
	fw, err := jcf.New(jcf.Release30)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fw.CreateUser("u"); err != nil {
		b.Fatal(err)
	}
	team, err := fw.CreateTeam("t")
	if err != nil {
		b.Fatal(err)
	}
	uid, _ := fw.User("u")
	if err := fw.AddMember(team, uid); err != nil {
		b.Fatal(err)
	}
	f := flow.New("f")
	if err := f.AddActivity(flow.Activity{Name: "a"}); err != nil {
		b.Fatal(err)
	}
	if _, err := fw.RegisterFlow(f); err != nil {
		b.Fatal(err)
	}
	project, err := fw.CreateProject("p", team)
	if err != nil {
		b.Fatal(err)
	}
	// 50 cells x 2 versions, hierarchies with injected staleness.
	var parents []int64
	for c := 0; c < 50; c++ {
		cell, err := fw.CreateCell(project, fmt.Sprintf("c%d", c))
		if err != nil {
			b.Fatal(err)
		}
		v1, err := fw.CreateCellVersion(cell, "f", team)
		if err != nil {
			b.Fatal(err)
		}
		v2, err := fw.CreateCellVersion(cell, "f", team)
		if err != nil {
			b.Fatal(err)
		}
		if c > 0 {
			if err := fw.SubmitHierarchy(v1, v2); err != nil {
				b.Fatal(err)
			}
		}
		parents = append(parents, int64(v1))
	}
	_ = parents
	// Two modes since the feed-driven cache landed: "full" is the
	// unconditional sweep (the pre-cache behaviour), "cached" answers an
	// unchanged store from the last verdict in O(changes) — the path
	// replicas poll after catch-up.
	b.Run("mode=full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = fw.CheckConsistencyFull()
		}
	})
	b.Run("mode=cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = fw.CheckConsistency()
		}
	})
}

// BenchmarkE33HierarchySubmit measures the manual-desktop hierarchy
// workload of section 3.3 under both releases.
func BenchmarkE33HierarchySubmit(b *testing.B) {
	for _, rel := range []jcf.Release{jcf.Release30, jcf.Release40} {
		b.Run(fmt.Sprintf("release=%s", rel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := experiments.HierarchyManualSteps(rel, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE35FlowEnforcement measures the flow engine's enforcement
// decision (section 3.5): a Start that must be rejected plus a legal
// Start/Finish pair.
func BenchmarkE35FlowEnforcement(b *testing.B) {
	f := core.DefaultFlow()
	if err := f.Freeze(); err != nil {
		b.Fatal(err)
	}
	e, err := flow.NewEnactment(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Out-of-order attempt: must be rejected.
		if err := e.Start(core.ActLayoutEntry); err == nil {
			b.Fatal("out-of-order start accepted")
		}
		// Legal iteration on the entry activity.
		if err := e.Start(core.ActSchematicEntry); err != nil {
			b.Fatal(err)
		}
		if err := e.Finish(core.ActSchematicEntry, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE36MetadataOps measures desktop metadata operations (section
// 3.6: "sufficiently high").
func BenchmarkE36MetadataOps(b *testing.B) {
	world, err := experiments.NewE36World(8)
	if err != nil {
		b.Fatal(err)
	}
	defer world.Cleanup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world.MetadataOpOnce()
	}
}

// BenchmarkE36MetadataOpsParallel measures the same desktop metadata
// batch issued by 4/16/64 concurrent designers per iteration. Before the
// kernel was lock-striped, every read serialized on one store mutex.
func BenchmarkE36MetadataOpsParallel(b *testing.B) {
	world, err := experiments.NewE36World(8)
	if err != nil {
		b.Fatal(err)
	}
	defer world.Cleanup()
	for _, n := range benchDesigners {
		b.Run(fmt.Sprintf("designers=%d", n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				world.MetadataOpsParallel(n, 50)
			}
		})
	}
}

// BenchmarkE36DesignDataNative measures direct FMCAD file access at two
// design sizes.
func BenchmarkE36DesignDataNative(b *testing.B) {
	for _, bits := range []int{8, 128} {
		b.Run(fmt.Sprintf("adder=%d", bits), func(b *testing.B) {
			world, err := experiments.NewE36World(bits)
			if err != nil {
				b.Fatal(err)
			}
			defer world.Cleanup()
			b.SetBytes(world.FileBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := world.NativeReadOnce(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE36DesignDataHybrid measures the same bytes through the master
// database — the copy-even-for-read-only path of section 3.6.
func BenchmarkE36DesignDataHybrid(b *testing.B) {
	for _, bits := range []int{8, 128} {
		b.Run(fmt.Sprintf("adder=%d", bits), func(b *testing.B) {
			world, err := experiments.NewE36World(bits)
			if err != nil {
				b.Fatal(err)
			}
			defer world.Cleanup()
			b.SetBytes(world.FileBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := world.HybridReadOnce(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE36DesignDataWriteNative measures one native FMCAD edit cycle
// (checkout, write, checkin) — no master involvement.
func BenchmarkE36DesignDataWriteNative(b *testing.B) {
	world, err := experiments.NewE36World(32)
	if err != nil {
		b.Fatal(err)
	}
	defer world.Cleanup()
	b.SetBytes(world.FileBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := world.NativeWriteOnce(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE36DesignDataWriteHybrid measures one full encapsulated edit
// cycle: flow check, staging, slave checkout/checkin, database copy-in,
// derivation recording.
func BenchmarkE36DesignDataWriteHybrid(b *testing.B) {
	world, err := experiments.NewE36World(32)
	if err != nil {
		b.Fatal(err)
	}
	defer world.Cleanup()
	b.SetBytes(world.FileBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := world.HybridWriteOnce(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE37SnapshotWriterStall measures what a designer feels while
// the framework persists itself: the latency distribution of Set calls
// issued against a blob-heavy store (the realistic shape — design data
// dwarfs metadata) while a save loop runs concurrently. Each save takes
// a consistent-cut Snapshot — stripes are held only for the O(headers)
// cut; blob bytes are shared (immutable, CoW) — then encodes it with
// Snapshot.Encode and writes it atomically, outside all locks. The
// headline metric is the p99 of Sets that overlap a capture
// (p99-during-snap-ns): capture is the only phase that holds locks, and
// gating to it keeps single-core scheduler noise from the lock-free
// encode phase from burying the stall being measured.
//
// The writer is open-loop: Sets are scheduled at a fixed arrival rate
// and latency is measured from the scheduled instant, not from when the
// blocked loop got around to issuing the op. A closed loop would issue
// exactly one op per stall and bury it in the percentile (coordinated
// omission); open-loop scheduling charges a 30ms lock hold with every
// op that should have completed during it.
//
// Reported metrics are per-Set percentiles in nanoseconds plus the
// number of saves that completed while the writer was being measured.
// BENCH_2.json records the ablation against the retired stop-the-world
// capture, which held every stripe while copying all blob bytes out.
func BenchmarkE37SnapshotWriterStall(b *testing.B) {
	const (
		objects  = 128
		blobSize = 256 << 10 // 32 MiB of design data total
	)
	b.Run("mode=consistent-cut", func(b *testing.B) {
		schema := oms.NewSchema()
		if err := schema.AddClass("DesignObjectVersion",
			oms.AttrDef{Name: "data", Kind: oms.KindBlob},
			oms.AttrDef{Name: "rev", Kind: oms.KindInt}); err != nil {
			b.Fatal(err)
		}
		st := oms.NewStore(schema)
		blob := make([]byte, blobSize)
		for i := range blob {
			blob[i] = byte(i)
		}
		oids := make([]oms.OID, objects)
		for i := range oids {
			oid, err := st.Create("DesignObjectVersion", map[string]oms.Value{
				"data": oms.Bytes(blob),
				"rev":  oms.I(0),
			})
			if err != nil {
				b.Fatal(err)
			}
			oids[i] = oid
		}
		// Snapshots land on tmpfs when the host has one: the file write
		// is outside all locks, so slow-disk writeback would only inject
		// minutes-long system stalls that drown the lock behaviour this
		// benchmark isolates.
		dir := b.TempDir()
		if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
			if d, err := os.MkdirTemp("/dev/shm", "omsbench"); err == nil {
				dir = d
				b.Cleanup(func() { os.RemoveAll(d) })
			}
		}
		path := filepath.Join(dir, "oms.snap")
		var stop, inCapture atomic.Bool
		var saves atomic.Int64
		var captureNS []time.Duration // saver-owned; read after wg.Wait
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				c0 := time.Now()
				inCapture.Store(true)
				snap := st.Snapshot()
				inCapture.Store(false)
				captureNS = append(captureNS, time.Since(c0))
				data := snap.Encode()
				tmp := path + ".tmp"
				if err := os.WriteFile(tmp, data, 0o644); err != nil {
					b.Error(err)
					return
				}
				if err := os.Rename(tmp, path); err != nil {
					b.Error(err)
					return
				}
				saves.Add(1)
				// Pause between saves so the writer's queue drains:
				// the measured tail is then the per-save stall, not
				// sustained CPU saturation from back-to-back encodes.
				time.Sleep(400 * time.Millisecond)
			}
		}()
		const interval = 50 * time.Microsecond // 20k Sets/s arrival rate
		lat := make([]time.Duration, 0, b.N)   // every op (open-loop, from sched)
		var latDuring []time.Duration          // block time of Sets overlapping a capture
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			sched := start.Add(time.Duration(i) * interval)
			if d := time.Until(sched); d > 0 {
				time.Sleep(d)
			}
			overlapped := inCapture.Load()
			t0 := time.Now()
			if err := st.Set(oids[i%objects], "rev", oms.I(int64(i))); err != nil {
				b.Fatal(err)
			}
			now := time.Now()
			lat = append(lat, now.Sub(sched))
			if overlapped || inCapture.Load() {
				// This Set ran while the capture held the stripe
				// locks; its call duration is the stall it ate.
				latDuring = append(latDuring, now.Sub(t0))
			}
		}
		b.StopTimer()
		stop.Store(true)
		wg.Wait()
		var captureTotal time.Duration
		maxCapture := time.Duration(0)
		for _, d := range captureNS {
			captureTotal += d
			if d > maxCapture {
				maxCapture = d
			}
		}
		pct := func(ds []time.Duration, p float64) float64 {
			if len(ds) == 0 {
				return 0
			}
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
			return float64(ds[int(p*float64(len(ds)-1))].Nanoseconds())
		}
		b.ReportMetric(pct(lat, 0.50), "p50-set-ns")
		b.ReportMetric(pct(latDuring, 0.99), "p99-set-during-snap-ns")
		b.ReportMetric(float64(len(latDuring)), "snap-overlap-ops")
		b.ReportMetric(float64(captureTotal.Nanoseconds())/float64(len(captureNS)), "mean-capture-ns")
		b.ReportMetric(float64(maxCapture.Nanoseconds()), "max-capture-ns")
		b.ReportMetric(float64(saves.Load()), "saves")
	})
}

// BenchmarkE38BatchCheckin measures the copy-in checkin sequence of
// section 3.6 — version create + ownership link + data blob + derivation
// link — through CheckInData at 4/16/64 concurrent designers. The
// checkin is one oms.Batch handed to Store.Apply: the touched stripe set
// is locked once for all four ops and the group is all-or-nothing.
//
// Designers work on disjoint cells (their own reserved cell versions),
// the section 3.1 regime, and each checks a fresh design object in
// checkinsPerOp times per benchmark iteration so per-design-object
// version lists stay short and the measured cost is the checkin itself,
// not version-history scans.
//
// BENCH_3.json records the ablation against the retired op-by-op
// checkin, which paid one stripe-lock round-trip per op and could leave
// the sequence half-done. Store and process heap grow monotonically
// across a benchmark process's lifetime and measurably slow every later
// sub-benchmark, so compare runs with a fixed iteration count.
func BenchmarkE38BatchCheckin(b *testing.B) {
	const checkinsPerOp = 10
	for _, n := range benchDesigners {
		b.Run(fmt.Sprintf("mode=batched/designers=%d", n), func(b *testing.B) {
			fw, err := jcf.New(jcf.Release30)
			if err != nil {
				b.Fatal(err)
			}
			team, err := fw.CreateTeam("bench")
			if err != nil {
				b.Fatal(err)
			}
			f := flow.New("bench-flow")
			if err := f.AddActivity(flow.Activity{Name: "edit"}); err != nil {
				b.Fatal(err)
			}
			if _, err := fw.RegisterFlow(f); err != nil {
				b.Fatal(err)
			}
			project, err := fw.CreateProject("p", team)
			if err != nil {
				b.Fatal(err)
			}
			vt, err := fw.CreateViewType("schematic")
			if err != nil {
				b.Fatal(err)
			}
			users := make([]string, n)
			variants := make([]oms.OID, n)
			for d := 0; d < n; d++ {
				users[d] = fmt.Sprintf("u%d", d)
				uid, err := fw.CreateUser(users[d])
				if err != nil {
					b.Fatal(err)
				}
				if err := fw.AddMember(team, uid); err != nil {
					b.Fatal(err)
				}
				cell, err := fw.CreateCell(project, fmt.Sprintf("c%d", d))
				if err != nil {
					b.Fatal(err)
				}
				cv, err := fw.CreateCellVersion(cell, "bench-flow", team)
				if err != nil {
					b.Fatal(err)
				}
				if err := fw.Reserve(users[d], cv); err != nil {
					b.Fatal(err)
				}
				variants[d] = fw.Variants(cv)[0]
			}
			src := filepath.Join(b.TempDir(), "design.dat")
			payload := make([]byte, 256)
			for i := range payload {
				payload[i] = byte(i)
			}
			if err := os.WriteFile(src, payload, 0o644); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for d := 0; d < n; d++ {
					wg.Add(1)
					go func(d int) {
						defer wg.Done()
						do, err := fw.CreateDesignObject(variants[d], fmt.Sprintf("do-%d-%d", d, i), vt)
						if err != nil {
							b.Errorf("create design object: %v", err)
							return
						}
						for s := 0; s < checkinsPerOp; s++ {
							if _, err := fw.CheckInData(users[d], do, src); err != nil {
								b.Errorf("checkin: %v", err)
								return
							}
						}
					}(d)
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkE39DifferentialSave measures Framework.SaveTo on the segment
// backend at growing store sizes. Each save writes only the change-feed
// suffix since the previous commit (here: `churn` checkins), so cost
// tracks the churn, not the store. Every 64th save compacts the chain
// (the chain bound) into an overlay or, once the overlays would reach
// the base's size, a full base, and is included in the timing — the
// amortized honest number. BENCH_4.json records the ablation against
// full saves, whose cost grew linearly with accumulated design data.
// Regenerate with `make bench-feed`.
func BenchmarkE39DifferentialSave(b *testing.B) {
	const churn = 8 // checkins between saves
	for _, objects := range []int{500, 2000, 8000} {
		b.Run(fmt.Sprintf("objects=%d/mode=differential", objects), func(b *testing.B) {
			fw, err := jcf.New(jcf.Release30)
			if err != nil {
				b.Fatal(err)
			}
			team, err := fw.CreateTeam("bench")
			if err != nil {
				b.Fatal(err)
			}
			uid, err := fw.CreateUser("u")
			if err != nil {
				b.Fatal(err)
			}
			if err := fw.AddMember(team, uid); err != nil {
				b.Fatal(err)
			}
			f := flow.New("bench-flow")
			if err := f.AddActivity(flow.Activity{Name: "edit"}); err != nil {
				b.Fatal(err)
			}
			if _, err := fw.RegisterFlow(f); err != nil {
				b.Fatal(err)
			}
			project, err := fw.CreateProject("p", team)
			if err != nil {
				b.Fatal(err)
			}
			vt, err := fw.CreateViewType("schematic")
			if err != nil {
				b.Fatal(err)
			}
			cell, err := fw.CreateCell(project, "c")
			if err != nil {
				b.Fatal(err)
			}
			cv, err := fw.CreateCellVersion(cell, "bench-flow", team)
			if err != nil {
				b.Fatal(err)
			}
			if err := fw.Reserve("u", cv); err != nil {
				b.Fatal(err)
			}
			variant := fw.Variants(cv)[0]
			src := filepath.Join(b.TempDir(), "design.dat")
			payload := make([]byte, 512)
			for i := range payload {
				payload[i] = byte(i)
			}
			if err := os.WriteFile(src, payload, 0o644); err != nil {
				b.Fatal(err)
			}
			checkin := func(tag string) {
				do, err := fw.CreateDesignObject(variant, tag, vt)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := fw.CheckInData("u", do, src); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < objects; i++ {
				checkin(fmt.Sprintf("seed-%d", i))
			}
			dir := b.TempDir()
			if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
				if d, err := os.MkdirTemp("/dev/shm", "omsfeed"); err == nil {
					dir = d
					b.Cleanup(func() { os.RemoveAll(d) })
				}
			}
			seg, err := backend.OpenSegment(dir)
			if err != nil {
				b.Fatal(err)
			}
			if err := fw.SaveTo(seg); err != nil { // the base epoch
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for c := 0; c < churn; c++ {
					checkin(fmt.Sprintf("churn-%d-%d", i, c))
				}
				b.StartTimer()
				if err := fw.SaveTo(seg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFeedWatchLatency measures end-to-end change-feed delivery:
// the time from issuing a Set to a Watch subscriber holding the
// committed record (publisher and subscriber on the same machine —
// the in-process bound a second-machine replica would add its network
// to). Regenerate with `make bench-feed`.
func BenchmarkFeedWatchLatency(b *testing.B) {
	schema := oms.NewSchema()
	if err := schema.AddClass("Cell",
		oms.AttrDef{Name: "rev", Kind: oms.KindInt}); err != nil {
		b.Fatal(err)
	}
	st := oms.NewStore(schema)
	oid, err := st.Create("Cell", nil)
	if err != nil {
		b.Fatal(err)
	}
	sub, err := st.Watch(st.FeedLSN(), 1024)
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := st.Set(oid, "rev", oms.I(int64(i))); err != nil {
			b.Fatal(err)
		}
		target := st.FeedLSN()
		for {
			g, ok := <-sub.C()
			if !ok {
				b.Fatal("subscription closed")
			}
			if g[len(g)-1].LSN >= target {
				break
			}
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-delivery-ns")
		b.ReportMetric(float64(lat[int(0.99*float64(len(lat)-1))].Nanoseconds()), "p99-delivery-ns")
	}
}

// BenchmarkE40ReplicaReadScaling measures aggregate read throughput
// against 1/2/4 read-only replica views while the primary keeps
// mutating (BENCH_5.json, `make bench-repl`). Readers are distributed
// round-robin across the replica views; the primary runs a continuous
// constant-size write load in the background, so the replicas earn
// their keep by taking the read traffic off the contended writer.
func BenchmarkE40ReplicaReadScaling(b *testing.B) {
	// replicas=0 is the baseline: reads served by the mutating primary
	// itself (one replica is still wired up so the replication pipeline
	// cost stays in the picture, but readers bypass it).
	for _, n := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			world, err := experiments.NewReplicationWorld(max(n, 1), 24)
			if err != nil {
				b.Fatal(err)
			}
			defer world.Close()
			views := world.Views
			if n == 0 {
				views = []*jcf.Framework{world.FW}
			}
			// Paced writer: a fixed ~5k writes/s background load, so every
			// replica count faces the same write pressure (an unthrottled
			// writer would starve readers unpredictably on a small box).
			stop := make(chan struct{})
			var writerDone sync.WaitGroup
			writerDone.Add(1)
			go func() {
				defer writerDone.Done()
				tick := time.NewTicker(200 * time.Microsecond)
				defer tick.Stop()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					case <-tick.C:
					}
					if _, err := world.MutatePrimary(i); err != nil {
						b.Error(err)
						return
					}
				}
			}()
			var next atomic.Int64
			b.SetParallelism(8) // spread readers across the views even on 1 CPU
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				view := views[int(next.Add(1))%len(views)]
				i := 0
				for pb.Next() {
					if err := world.ReadProbe(view, i); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			b.StopTimer()
			close(stop)
			writerDone.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
		})
	}
}

// BenchmarkE41ReplicationLag measures commit-to-replica-visibility
// latency: each iteration commits one write on the primary and waits for
// the replica's read-your-writes barrier to cover it, while a paced
// background writer keeps a sustained load on the feed and a paced
// reader keeps the view busy (BENCH_5.json).
func BenchmarkE41ReplicationLag(b *testing.B) {
	world, err := experiments.NewReplicationWorld(1, 24)
	if err != nil {
		b.Fatal(err)
	}
	defer world.Close()
	rep := world.Replicas[0]
	// Sustained background load: one paced writer (~5k writes/s on a
	// second reservation target, so it never collides with the measured
	// writer) plus one paced reader on the view — the barrier latency is
	// measured under real replication traffic rather than on an idle
	// feed, without starving the apply loop on a small box.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if err := world.ChurnPrimary(i); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	bg.Add(1)
	go func() {
		defer bg.Done()
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if err := world.ReadProbe(world.Views[0], i); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsn, err := world.MutatePrimary(i)
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		if err := rep.WaitFor(lsn, 30*time.Second); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	close(stop)
	bg.Wait()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-lag-ns")
		b.ReportMetric(float64(lat[int(0.99*float64(len(lat)-1))].Nanoseconds()), "p99-lag-ns")
	}
}

// BenchmarkE34UIContexts and BenchmarkM1FeatureMatrix regenerate the
// remaining qualitative artifacts so every section has a bench target.
func BenchmarkE34UIContexts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, env := range []string{"fmcad", "jcf", "hybrid"} {
			if _, err := core.UIContexts(env); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkM1FeatureMatrix renders the capability matrix.
func BenchmarkM1FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(core.RenderFeatureMatrix()) == 0 {
			b.Fatal("empty matrix")
		}
	}
}

// BenchmarkA1MenuLockAblation runs the rogue workload of the section 2.4
// menu-locking ablation (locks on + locks off).
func BenchmarkA1MenuLockAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunA1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// pctNS returns the p-quantile of a latency sample in nanoseconds
// (sorts ds in place).
func pctNS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return float64(ds[int(p*float64(len(ds)-1))].Nanoseconds())
}

// BenchmarkE42BlobCheckin measures the two-stage content-addressed
// checkin pipeline against the inline baseline (BENCH_6.json) at
// 4KiB/256KiB/4MiB design sizes. Two latencies per iteration:
//
//   - checkin: CheckInData wall time. Inline pays hashing nothing but
//     carries the bytes through the batch; cas hashes up front, hands
//     the bytes to the async upload pool and commits only the ref.
//   - commit: the differential SaveTo that follows — the metadata
//     commit. Inline deltas drag the full design bytes (base64 in the
//     feed payload), so commit latency grows with design size; cas
//     deltas carry the ~40-byte ref and stay flat.
//
// Every iteration stamps fresh content (NextDesign, outside the timer)
// so cas uploads are real, never dedup hits. The acceptance bar: cas
// p99 commit at 4MiB within 2x of 4KiB.
func BenchmarkE42BlobCheckin(b *testing.B) {
	sizes := []struct {
		name string
		n    int
	}{{"4KiB", 4 << 10}, {"256KiB", 256 << 10}, {"4MiB", 4 << 20}}
	for _, mode := range []string{"inline", "cas"} {
		for _, sz := range sizes {
			b.Run(fmt.Sprintf("mode=%s/size=%s", mode, sz.name), func(b *testing.B) {
				w, err := experiments.NewBlobWorld(mode == "cas", sz.n)
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				// One unmeasured warmup: first-touch costs (pool fills,
				// backend directory creation, base-delta setup) otherwise
				// land in a single iteration's p99.
				if _, err := w.CheckIn(); err != nil {
					b.Fatal(err)
				}
				if err := w.Drain(); err != nil {
					b.Fatal(err)
				}
				if err := w.Save(); err != nil {
					b.Fatal(err)
				}
				if err := w.NextDesign(); err != nil {
					b.Fatal(err)
				}
				checkin := make([]time.Duration, 0, b.N)
				commit := make([]time.Duration, 0, b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					if _, err := w.CheckIn(); err != nil {
						b.Fatal(err)
					}
					checkin = append(checkin, time.Since(t0))
					// Quiesce the async upload before timing the commit:
					// the pipeline's contract is that METADATA latency is
					// size-independent; overlapping the CAS upload's disk
					// traffic would measure device contention instead.
					b.StopTimer()
					if err := w.Drain(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					t1 := time.Now()
					if err := w.Save(); err != nil {
						b.Fatal(err)
					}
					commit = append(commit, time.Since(t1))
					b.StopTimer()
					if err := w.NextDesign(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				b.StopTimer()
				b.SetBytes(int64(sz.n))
				b.ReportMetric(pctNS(checkin, 0.50), "p50-checkin-ns")
				b.ReportMetric(pctNS(checkin, 0.99), "p99-checkin-ns")
				b.ReportMetric(pctNS(commit, 0.50), "p50-commit-ns")
				b.ReportMetric(pctNS(commit, 0.99), "p99-commit-ns")
			})
		}
	}
}

// BenchmarkE42BlobDedup runs the re-checkin workload: every iteration
// checks in the SAME 256KiB content (new version, same bytes — the
// re-release pattern), so the CAS stores one physical copy however many
// versions reference it. dedup-ratio = logical/physical ingest.
func BenchmarkE42BlobDedup(b *testing.B) {
	w, err := experiments.NewBlobWorld(true, 256<<10)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.CheckIn(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Publish drains the async uploads — every version durable.
	if err := w.Publish(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(256 << 10)
	b.ReportMetric(w.DedupRatio(), "dedup-ratio")
}

// BenchmarkE42BlobReplFrames measures the replication bytes one 4MiB
// checkin ships to a converged follower: inline frames carry the design
// bytes (base64-inflated), cas frames carry the ~40-byte ref — the
// follower pulls bytes lazily only when a reader asks.
func BenchmarkE42BlobReplFrames(b *testing.B) {
	const size = 4 << 20
	for _, mode := range []string{"inline", "cas"} {
		b.Run("mode="+mode, func(b *testing.B) {
			w, err := experiments.NewBlobWorld(mode == "cas", size)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			if err := w.StartReplication(); err != nil {
				b.Fatal(err)
			}
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := w.NextDesign(); err != nil {
					b.Fatal(err)
				}
				if err := w.WaitReplica(30 * time.Second); err != nil {
					b.Fatal(err)
				}
				before := w.FrameBytes()
				b.StartTimer()
				if _, err := w.CheckIn(); err != nil {
					b.Fatal(err)
				}
				if err := w.WaitReplica(30 * time.Second); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				total += w.FrameBytes() - before
				b.StartTimer()
			}
			b.StopTimer()
			b.SetBytes(size)
			b.ReportMetric(float64(total)/float64(b.N), "frame-bytes-per-checkin")
		})
	}
}
