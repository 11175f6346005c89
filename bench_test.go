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
//
// The persistence, change-feed, replication and blob layers are measured
// end to end and per layer by perfbench (see perfbench/NOTES.md);
// BENCH_2 to BENCH_6 are the frozen record of their earlier benchmarks.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/jcf"
	"repro/internal/obs"
	"repro/internal/oms"
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
// disjoint designers never contend. Each write is a one-op Store.Apply
// batch that the designer resets and reuses, as the jcf entry points
// reuse their pooled batches.
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
			setup := oms.NewBatch()
			for d := 0; d < n; d++ {
				setup.Create("User", map[string]oms.Value{"name": oms.S(fmt.Sprintf("u%d", d))})
			}
			// One chip design's worth of accumulated metadata: thousands
			// of versions beyond the handful each designer touches. The
			// by-name Reserve lookup must not pay for them.
			const filler = 5000
			for i := 0; i < filler; i++ {
				setup.Create("CellVersion", map[string]oms.Value{"num": oms.I(int64(1000 + i))})
			}
			for i := 0; i < n*4; i++ {
				setup.Create("CellVersion", map[string]oms.Value{"num": oms.I(int64(i))})
			}
			created, err := st.Apply(setup)
			if err != nil {
				b.Fatal(err)
			}
			users, cvs := created[:n], created[n+filler:]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for d := 0; d < n; d++ {
					wg.Add(1)
					go func(d int) {
						defer wg.Done()
						name := oms.S(fmt.Sprintf("u%d", d))
						user := users[d]
						bt := oms.NewBatch()
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
							bt.Reset()
							bt.Link("reserves", user, cv)
							if _, err := st.Apply(bt); err != nil {
								b.Errorf("link: %v", err)
								return
							}
							_ = st.Targets("reserves", user)
							bt.Reset()
							bt.Set(cv, "published", oms.B(s%2 == 0))
							if _, err := st.Apply(bt); err != nil {
								b.Errorf("set: %v", err)
								return
							}
							_ = st.GetInt(cv, "num")
							bt.Reset()
							bt.Unlink("reserves", user, cv)
							if _, err := st.Apply(bt); err != nil {
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
			setup := oms.NewBatch()
			for d := 0; d < designers; d++ {
				setup.Create("User", map[string]oms.Value{"name": oms.S(fmt.Sprintf("u%d", d))})
			}
			for i := 0; i < designers*4; i++ {
				setup.Create("CellVersion", map[string]oms.Value{"num": oms.I(int64(i))})
			}
			created, err := st.Apply(setup)
			if err != nil {
				b.Fatal(err)
			}
			users, cvs := created[:designers], created[designers:]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for d := 0; d < designers; d++ {
					wg.Add(1)
					go func(d int) {
						defer wg.Done()
						user := users[d]
						bt := oms.NewBatch()
						for s := 0; s < 20; s++ {
							cv := cvs[d*4+s%4]
							_ = st.GetBool(cv, "published")
							bt.Reset()
							bt.Link("reserves", user, cv)
							if _, err := st.Apply(bt); err != nil {
								b.Errorf("link: %v", err)
								return
							}
							bt.Reset()
							bt.Set(cv, "published", oms.B(s%2 == 0))
							if _, err := st.Apply(bt); err != nil {
								b.Errorf("set: %v", err)
								return
							}
							_ = st.GetInt(cv, "num")
							bt.Reset()
							bt.Unlink("reserves", user, cv)
							if _, err := st.Apply(bt); err != nil {
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
	// The first call sweeps; later calls answer the unchanged store from
	// the cached verdict in O(changes), the path replicas poll after
	// catch-up.
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
