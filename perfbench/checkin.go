package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/flow"
	"repro/internal/jcf"
	"repro/internal/obs"
	"repro/internal/oms"
	"repro/internal/oms/backend"
)

// checkin-commit: one designer, closed loop, CheckInData then a
// differential SaveTo. Checkins go round-robin over 256 design objects;
// the store is pre-filled with 4096 versions so every compaction (a
// full base snapshot after 64 deltas) rewrites a realistic base.

const (
	commitObjects  = 256
	commitPrefill  = 4096
	objectsPerCell = 16
	designerName   = "designer"
)

type commitWorld struct {
	dir, stateDir, casDir string
	fw                    *jcf.Framework
	reg, blobReg          *obs.Registry
	// state is the one backend value every SaveTo receives, so the
	// persistence layer keeps its differential-save anchor.
	state    backend.Backend
	stateTB  *tracedBackend // nil when untraced
	casTB    *tracedBackend // nil when untraced
	cvs, dos []oms.OID
	src      string
	gen      *payloadGen
	next     int
	acked    map[oms.OID]version
	// userBytes counts design bytes checked in, prefill included.
	userBytes int64
}

func (w *commitWorld) close() {
	for _, cv := range w.cvs {
		// Drain uploads before the directory goes away.
		if err := w.fw.WaitBlobDurable(cv); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: drain: %v\n", err)
		}
	}
	removeDir(w.dir)
}

// newDesignFramework creates a framework with one user in one team, a
// one-activity flow and cells*objects design objects, every cell
// version reserved by that user. It returns the cell versions and the
// design objects, cell by cell.
func newDesignFramework(users []string, cells, objects int) (*jcf.Framework, []oms.OID, []oms.OID, error) {
	fw, err := jcf.New(jcf.Release30)
	if err != nil {
		return nil, nil, nil, err
	}
	team, err := fw.CreateTeam("bench")
	if err != nil {
		return nil, nil, nil, err
	}
	for _, u := range users {
		if _, err := fw.CreateUser(u); err != nil {
			return nil, nil, nil, err
		}
		uid, err := fw.User(u)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := fw.AddMember(team, uid); err != nil {
			return nil, nil, nil, err
		}
	}
	vt, err := fw.CreateViewType("layout")
	if err != nil {
		return nil, nil, nil, err
	}
	f := flow.New("edit-flow")
	if err := f.AddActivity(flow.Activity{Name: "edit"}); err != nil {
		return nil, nil, nil, err
	}
	if _, err := fw.RegisterFlow(f); err != nil {
		return nil, nil, nil, err
	}
	project, err := fw.CreateProject("bench", team)
	if err != nil {
		return nil, nil, nil, err
	}
	var cvs, dos []oms.OID
	for c := 0; c < cells; c++ {
		cell, err := fw.CreateCell(project, fmt.Sprintf("cell%03d", c))
		if err != nil {
			return nil, nil, nil, err
		}
		cv, err := fw.CreateCellVersion(cell, "edit-flow", team)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := fw.Reserve(users[0], cv); err != nil {
			return nil, nil, nil, err
		}
		cvs = append(cvs, cv)
		for o := 0; o < objects; o++ {
			do, err := fw.CreateDesignObject(fw.Variants(cv)[0], fmt.Sprintf("obj%03d", o), vt)
			if err != nil {
				return nil, nil, nil, err
			}
			dos = append(dos, do)
		}
	}
	return fw, cvs, dos, nil
}

func commitSizes(cfg config) (objects, prefill int) {
	if cfg.tiny {
		return 32, 256
	}
	return commitObjects, commitPrefill
}

func buildCommitWorld(cfg config, dir string, tr *tracer) (*commitWorld, error) {
	objects, prefill := commitSizes(cfg)
	fw, cvs, dos, err := newDesignFramework([]string{designerName}, objects/objectsPerCell, objectsPerCell)
	if err != nil {
		return nil, err
	}
	w := &commitWorld{dir: dir, stateDir: filepath.Join(dir, "state"), casDir: filepath.Join(dir, "cas"),
		fw: fw, reg: obs.NewRegistry(), blobReg: obs.NewRegistry(), cvs: cvs, dos: dos,
		src: filepath.Join(dir, "design.dat"), gen: newPayloadGen(cfg.seed), acked: map[oms.OID]version{}}
	if err := w.open(tr); err != nil {
		removeDir(dir)
		return nil, err
	}
	for i := 0; i < prefill; i++ {
		if _, err := w.checkin(); err != nil {
			w.close()
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	if err := w.fw.SaveTo(w.state); err != nil {
		w.close()
		return nil, err
	}
	for _, cv := range cvs {
		if err := w.fw.WaitBlobDurable(cv); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// open attaches the CAS and the state backend, wrapped when traced.
func (w *commitWorld) open(tr *tracer) error {
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	cas, err := backend.OpenFile(w.casDir)
	if err != nil {
		return err
	}
	seg, err := backend.OpenSegment(w.stateDir)
	if err != nil {
		return err
	}
	var casBE backend.Backend = cas
	w.state = seg
	if tr != nil {
		w.casTB = newTracedBackend(cas, tr, "cas")
		w.stateTB = newTracedBackend(seg, tr, "backend")
		casBE, w.state = w.casTB, w.stateTB
	}
	if err := w.fw.EnableBlobStore(casBE, spillAt); err != nil {
		return err
	}
	w.fw.RegisterMetrics(w.reg)
	w.fw.BlobStore().RegisterMetrics(w.blobReg)
	return nil
}

// stage writes the next payload to the design file (outside timing) and
// returns it with the design object it goes to.
func (w *commitWorld) stage() ([]byte, oms.OID, error) {
	data, _ := w.gen.next()
	do := w.dos[w.next%len(w.dos)]
	w.next++
	return data, do, os.WriteFile(w.src, data, 0o644)
}

// checkin stages and checks in one payload, recording it as acked.
func (w *commitWorld) checkin() (oms.OID, error) {
	data, do, err := w.stage()
	if err != nil {
		return 0, err
	}
	dov, err := w.fw.CheckInData(designerName, do, w.src)
	if err != nil {
		return 0, err
	}
	w.acked[dov] = versionOf(data)
	w.userBytes += int64(len(data))
	return dov, nil
}

// commitPass is the outcome of one measured pass.
type commitPass struct {
	lat, save, compaction  latencies
	ops, attempted, failed int64
	elapsed                time.Duration
	queueMax               int64
	heapMB                 float64
	win                    *window
	userBytes              int64
	rt0, rt1               runtimeCounters
	reg0, reg1             regSnap
	blob0, blob1           oms.BlobStats
	// cumulative exact counts after each op, for the fidelity guard.
	cumPuts, cumCompactions []int64
	puts, deletes, gets     int64
	casBytes, stateBytes    int64
	errs                    []string
}

// drive runs the closed loop for dur. With exact set (untraced
// reference pass) it reads the committed manifest after each save,
// outside the timed region, to count compactions and puts without a
// wrapper.
func (w *commitWorld) drive(dur time.Duration, minOps int64, tr *tracer, exact bool) *commitPass {
	p := &commitPass{}
	p.reg0, p.rt0, p.blob0 = snap(w.reg), readRuntime(), w.fw.BlobStats()
	var p0, d0, g0, c0, s0 int64
	if w.stateTB != nil {
		p0, d0, g0 = w.stateTB.puts.Load(), w.stateTB.deletes.Load(), w.stateTB.gets.Load()
		c0, s0 = w.casTB.bytesPut.Load(), w.stateTB.bytesPut.Load()
	}
	ub0 := w.userBytes
	x := exactCounts{exact: exact, p0: p0, prevDeltas: -1}
	if exact {
		x.prevDeltas = w.manifestDeltas()
	}
	poll := startPoller(func() int64 { return snap(w.blobReg).scalar("blob_queue_depth") })
	start := time.Now()
	win := newWindow(start, dur, minOps)
	for op := int64(1); win.begin(); op++ {
		ok, err := w.durableCheckin(op, tr, p, &x)
		win.end(count(ok))
		if err != nil {
			p.errs = append(p.errs, err.Error())
			break
		}
	}
	p.elapsed = time.Since(start)
	peaks := poll.finish()
	p.queueMax = peaks[0]
	p.rt1, p.reg1, p.blob1 = readRuntime(), snap(w.reg), w.fw.BlobStats()
	p.heapMB, p.win = win.heapMB(), win
	p.userBytes = w.userBytes - ub0
	if w.stateTB != nil {
		p.puts, p.deletes, p.gets = w.stateTB.puts.Load()-p0, w.stateTB.deletes.Load()-d0, w.stateTB.gets.Load()-g0
		p.casBytes, p.stateBytes = w.casTB.bytesPut.Load()-c0, w.stateTB.bytesPut.Load()-s0
	}
	return p
}

// exactCounts tallies backend puts and compactions save by save for
// the fidelity guard: from the wrapper when traced, from the committed
// manifest in the untraced reference pass (exact set).
type exactCounts struct {
	exact             bool
	p0                int64
	prevDeltas        int
	puts, compactions int64
}

// durableCheckin stages the next payload and runs one CheckInData then
// SaveTo; ok reports that both succeeded. A failed call is tallied in p;
// only a failure of the benchmark's own staging write is returned.
func (w *commitWorld) durableCheckin(op int64, tr *tracer, p *commitPass, x *exactCounts) (ok bool, err error) {
	data, do, err := w.stage()
	if err != nil {
		return false, err
	}
	root := tr.start("durable_checkin", op, 0)
	defer root.end()
	t0 := time.Now()
	sp := tr.start("jcf.checkin", op, root.id)
	dov, err := w.fw.CheckInData(designerName, do, w.src)
	sp.end()
	p.attempted++
	if err != nil {
		p.failed++
		p.errs = append(p.errs, err.Error())
		return false, nil
	}
	w.acked[dov] = versionOf(data)
	w.userBytes += int64(len(data))
	var base0 int64
	sp = tr.start("jcf.save", op, root.id)
	if w.stateTB != nil {
		w.stateTB.within(op, sp.id)
		base0 = w.stateTB.basePuts.Load()
	}
	ts := time.Now()
	err = w.fw.SaveTo(w.state)
	now := time.Now()
	sp.end()
	p.attempted++
	if err != nil {
		p.failed++
		p.errs = append(p.errs, err.Error())
		return false, nil
	}
	p.lat.add(now.Sub(t0))
	p.save.add(now.Sub(ts))
	p.ops++
	compacted := false
	switch {
	case w.stateTB != nil:
		compacted = w.stateTB.basePuts.Load() > base0
		x.puts = w.stateTB.puts.Load() - x.p0
	case x.exact:
		n := w.manifestDeltas()
		compacted = n == 0
		// CURRENT and framework@N always; plus the new base or delta.
		x.puts += 2
		if compacted || n > x.prevDeltas {
			x.puts++
		}
		x.prevDeltas = n
	}
	if compacted {
		x.compactions++
		p.compaction.add(now.Sub(ts))
	}
	p.cumPuts = append(p.cumPuts, x.puts)
	p.cumCompactions = append(p.cumCompactions, x.compactions)
	return true, nil
}

// manifestDeltas returns the committed delta-chain length (0 right
// after a compaction), or -1 when the manifest cannot be read.
func (w *commitWorld) manifestDeltas() int {
	m, err := backend.LoadManifest(w.state)
	if err != nil {
		return -1
	}
	return len(m.Deltas)
}

// spaceAmp is bytes on disk under the state and CAS directories over
// design bytes checked in.
func (w *commitWorld) spaceAmp() (float64, error) {
	for _, cv := range w.cvs {
		if err := w.fw.WaitBlobDurable(cv); err != nil {
			return 0, err
		}
	}
	n, err := diskBytes(w.stateDir, w.casDir)
	if err != nil {
		return 0, err
	}
	return ratio(float64(n), float64(w.userBytes)), nil
}

// verify reloads the state backend from disk in a fresh framework and
// checks every acknowledged version's size and sha256.
func (w *commitWorld) verify(rep *report) {
	for _, cv := range w.cvs {
		if err := w.fw.WaitBlobDurable(cv); err != nil {
			rep.problemf("checkin-commit: upload: %v", err)
			return
		}
	}
	if bad := w.fw.CheckConsistency(); len(bad) > 0 {
		rep.problemf("checkin-commit: CheckConsistency: %d problems, first: %v", len(bad), bad[0])
	}
	seg, err := backend.OpenSegment(w.stateDir)
	if err != nil {
		rep.problemf("checkin-commit: reopen state: %v", err)
		return
	}
	loaded, err := jcf.LoadFrom(seg)
	if err != nil {
		rep.problemf("checkin-commit: LoadFrom: %v", err)
		return
	}
	cas, err := backend.OpenFile(w.casDir)
	if err == nil {
		err = loaded.EnableBlobStore(cas, spillAt)
	}
	if err != nil {
		rep.problemf("checkin-commit: reopen CAS: %v", err)
		return
	}
	if bad := loaded.CheckConsistency(); len(bad) > 0 {
		rep.problemf("checkin-commit: reloaded CheckConsistency: %d problems, first: %v", len(bad), bad[0])
	}
	out := filepath.Join(w.dir, "verify.dat")
	bad := 0
	for dov, v := range w.acked {
		size, err := loaded.DataSize(dov)
		if err == nil && size != v.size {
			err = fmt.Errorf("size %d, want %d", size, v.size)
		}
		if err == nil {
			err = loaded.ExportVersionData(dov, out)
		}
		if err == nil {
			err = checkFile(out, v)
		}
		if err != nil {
			if bad == 0 {
				rep.problemf("checkin-commit: reloaded version %d: %v", dov, err)
			}
			bad++
		}
	}
	if bad > 0 {
		rep.problemf("checkin-commit: %d of %d acknowledged versions did not reload intact", bad, len(w.acked))
	}
	rep.linef("checkin-commit: reload check: %d acknowledged versions, %d bad", len(w.acked), bad)
}

func runCheckinCommit(cfg config) (*report, error) {
	rep := newReport()
	w, setup, err := setupMedian(cfg, "commit", func(dir string) (*commitWorld, error) {
		return buildCommitWorld(cfg, dir, nil)
	})
	if err != nil {
		return nil, err
	}
	ref := w.drive(passDur(cfg), passMinOps(cfg), nil, cfg.trace)
	amp, err := w.spaceAmp()
	if err != nil {
		w.close()
		return nil, err
	}
	w.verify(rep)
	w.close()
	for _, e := range firstN(ref.errs, 5) {
		rep.linef("checkin-commit error: %s", e)
	}
	objects, prefill := commitSizes(cfg)
	rep.linef("checkin-commit: 1 designer closed loop, CheckInData + differential SaveTo; %d objects, %d pre-filled versions; segment state + file CAS (64 KiB spill) under .bench_build on the checkout's own file system", objects, prefill)
	rep.linef("checkin-commit: the segment backend fsyncs every Put, so wall latencies are this machine's storage stack, not a device figure")
	rep.linef("checkin-commit space_amp: %.4f (disk bytes under state+CAS / design bytes checked in)", amp)
	err = rep.record(cfg, setup, summary{workload: "checkin-commit", op: "durable_checkin (CheckInData start → SaveTo return)",
		lat: &ref.lat, ops: ref.ops, rate: "durable_checkins_per_s", units: ref.ops, elapsed: ref.elapsed,
		cpu: ref.rt1.cpu - ref.rt0.cpu, win: ref.win, heapMB: ref.heapMB, attempted: ref.attempted, failed: ref.failed})
	if err != nil || !cfg.trace {
		return rep, err
	}

	tr := newTracer()
	tw, _, err := setupMedian(cfg, "commit-traced", func(dir string) (*commitWorld, error) {
		return buildCommitWorld(cfg, dir, tr)
	})
	if err != nil {
		return nil, err
	}
	tp := tw.drive(passDur(cfg), 0, tr, false)
	tw.verify(rep)
	tw.close()
	L := rep.layers
	L["workload.space_amp"] = amp
	fillJCFCheckin(L, tp.reg0, tp.reg1)
	L["jcf.save_ms"] = ms(tp.save.p50())
	L["jcf.save_self_ms"] = ms(tr.selfTimes("jcf.save").p50())
	L["jcf.compaction_ms"] = ms(tp.compaction.p50())
	L["jcf.compactions_per_1k_saves"] = 1000 * ratio(float64(tp.compaction.n()), float64(tp.ops))
	fillOMS(L, tp.reg0, tp.reg1, tp.ops)
	L["backend.puts_per_save"] = ratio(float64(tp.puts), float64(tp.ops))
	L["backend.deletes_per_save"] = ratio(float64(tp.deletes), float64(tp.ops))
	L["backend.gets_per_save"] = ratio(float64(tp.gets), float64(tp.ops))
	L["backend.put_delta_ms"] = ms(tr.durations("backend.put_delta").p50())
	L["backend.put_small_ms"] = ms(tr.durations("backend.put_small").p50())
	L["backend.put_base_ms"] = ms(tr.durations("backend.put_base").p50())
	L["backend.delete_ms"] = ms(tr.durations("backend.delete").p50())
	L["backend.bytes_written_per_user_byte"] = ratio(float64(tp.stateBytes+tp.casBytes), float64(tp.userBytes))
	L["blobstore.put_ms"] = ms(tr.durations("cas.put").p50())
	L["blobstore.upload_ms"] = histMeanMs(tp.reg0, tp.reg1, "blob_upload_ns")
	L["blobstore.queue_depth_max"] = float64(tp.queueMax)
	L["blobstore.dedup_ratio"] = ratio(float64(tp.blob1.LogicalIn-tp.blob0.LogicalIn), float64(tp.blob1.PhysicalIn-tp.blob0.PhysicalIn))
	fillRuntime(L, ref.rt0, ref.rt1, ref.ops)
	L["obs.trace_overhead_pct"] = overheadPct(&ref.lat, &tp.lat)
	rep.linef("checkin-commit traced: %d saves, %d compactions; save self time p50 %.4f ms", tp.ops, tp.compaction.n(), L["jcf.save_self_ms"])

	// Fidelity guard: the wrapped backend must leave the persistence
	// layer's choices unchanged — same puts and compactions per save as
	// the bare backend over the same seeded op sequence.
	k := min(len(ref.cumPuts), len(tp.cumPuts))
	if k == 0 {
		rep.problemf("fidelity: no saves to compare")
	} else if ref.cumPuts[k-1] != tp.cumPuts[k-1] || ref.cumCompactions[k-1] != tp.cumCompactions[k-1] {
		rep.problemf("fidelity: after %d saves traced puts=%d compactions=%d, untraced puts=%d compactions=%d",
			k, tp.cumPuts[k-1], tp.cumCompactions[k-1], ref.cumPuts[k-1], ref.cumCompactions[k-1])
	} else {
		rep.linef("checkin-commit fidelity: after %d saves both passes made %d backend puts and %d compactions",
			k, tp.cumPuts[k-1], tp.cumCompactions[k-1])
	}
	return rep, tr.write(cfg.traceOut)
}

func firstN(s []string, n int) []string {
	if len(s) > n {
		return s[:n]
	}
	return s
}
