package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/jcf"
	"repro/internal/obs"
	"repro/internal/oms"
	"repro/internal/oms/backend"
	"repro/internal/oms/blobstore"
	"repro/internal/otod"
	"repro/internal/repl"
)

// replicated-read: a primary and one replica over TCP loopback. One
// writer goroutine runs Reserve → CheckInData → Publish and waits until
// the replica has applied the commit; one reader goroutine checks data
// out of the replica view. The reader only reads versions whose WaitFor
// has returned (read-your-writes), so every read must succeed.

const (
	replCells  = 64
	writerName = "writer"
	readerName = "reader"
	waitFor    = 10 * time.Second
)

type visibleDOV struct {
	dov oms.OID
	v   version
}

type replWorld struct {
	dir                      string
	fw, view                 *jcf.Framework
	reg, replicaReg, blobReg *obs.Registry
	cvs, dos                 []oms.OID
	pub                      *repl.Publisher
	serveDone                chan struct{}
	rep                      *repl.Replica
	gen                      *payloadGen
	src                      string
	counts                   connCounts
	casTB                    *tracedBackend // nil when untraced

	mu      sync.Mutex
	visible []visibleDOV // per cell: the latest version known applied on the replica
}

func (w *replWorld) close() {
	if w.rep != nil {
		w.rep.Close()
	}
	if w.pub != nil {
		w.pub.Close()
		<-w.serveDone
	}
	for _, cv := range w.cvs {
		if err := w.fw.WaitBlobDurable(cv); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: drain: %v\n", err)
		}
	}
	removeDir(w.dir)
}

func replCellCount(cfg config) int {
	if cfg.tiny {
		return 8
	}
	return replCells
}

func buildReplWorld(cfg config, dir string, tr *tracer) (*replWorld, error) {
	fw, cvs, dos, err := newDesignFramework([]string{writerName, readerName}, replCellCount(cfg), 1)
	if err != nil {
		return nil, err
	}
	w := &replWorld{dir: dir, fw: fw, reg: obs.NewRegistry(), replicaReg: obs.NewRegistry(), blobReg: obs.NewRegistry(),
		cvs: cvs, dos: dos, gen: newPayloadGen(cfg.seed), src: filepath.Join(dir, "design.dat"),
		visible: make([]visibleDOV, len(cvs)), serveDone: make(chan struct{})}
	if err := w.wire(tr); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// wire attaches the CAS, publishes a first version of every cell, and
// brings a TCP replica with its own blob store up to date.
func (w *replWorld) wire(tr *tracer) error {
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	cas, err := backend.OpenFile(filepath.Join(w.dir, "cas"))
	if err != nil {
		return err
	}
	var casBE backend.Backend = cas
	if tr != nil {
		w.casTB = newTracedBackend(cas, tr, "cas")
		casBE = w.casTB
	}
	if err := w.fw.EnableBlobStore(casBE, spillAt); err != nil {
		return err
	}
	w.fw.RegisterMetrics(w.reg)
	w.fw.BlobStore().RegisterMetrics(w.blobReg)
	for i, cv := range w.cvs {
		data, err := w.stage()
		if err != nil {
			return err
		}
		dov, err := w.fw.CheckInData(writerName, w.dos[i], w.src)
		if err != nil {
			return err
		}
		if err := w.fw.Publish(writerName, cv); err != nil {
			return err
		}
		w.visible[i] = visibleDOV{dov, versionOf(data)}
	}

	ln, err := repl.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	var dialer repl.Dialer = &repl.TCPDialer{Addr: ln.Addr()}
	if tr != nil {
		ln = &tracedListener{Listener: ln, tr: tr, c: &w.counts}
		dialer = &tracedDialer{Dialer: dialer, tr: tr, c: &w.counts}
	}
	w.pub = repl.NewPublisher(w.fw.ReplicationSource())
	go func() {
		defer close(w.serveDone)
		if err := w.pub.Serve(ln); err != nil && !errors.Is(err, repl.ErrClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: publisher: %v\n", err)
		}
	}()
	rcas, err := backend.OpenFile(filepath.Join(w.dir, "replica-cas"))
	if err != nil {
		return err
	}
	rbs, err := blobstore.New(rcas)
	if err != nil {
		return err
	}
	schema, err := otod.JCFModel().Schema()
	if err != nil {
		return err
	}
	w.rep = repl.NewReplica(schema, dialer, repl.WithBlobStore(rbs))
	w.rep.RegisterMetrics(w.replicaReg)
	w.rep.Store().RegisterMetrics(w.replicaReg)
	w.rep.Start()
	if err := w.rep.WaitFor(w.fw.FeedLSN(), 30*time.Second); err != nil {
		return fmt.Errorf("replica catch-up: %w", err)
	}
	w.view, err = jcf.NewReplicaView(w.rep.Store(), jcf.Release30)
	return err
}

func (w *replWorld) stage() ([]byte, error) {
	data, _ := w.gen.next()
	return data, os.WriteFile(w.src, data, 0o644)
}

// replPass is the outcome of one measured pass.
type replPass struct {
	visible, reserve, publish, wait, read latencies
	writes, reads                         int64
	attempted, failed                     int64
	elapsed                               time.Duration
	queueMax, lagMax                      int64
	heapMB                                float64
	win                                   *window
	rt0, rt1                              runtimeCounters
	reg0, reg1, rreg0, rreg1              regSnap
	blob0, blob1                          oms.BlobStats
	rs0, rs1                              repl.ReplicaStats
	frames, frameBytes                    int64
	problems, errs                        []string
}

// drive runs the writer and the reader for dur.
func (w *replWorld) drive(seed int64, dur time.Duration, minOps int64, tr *tracer) *replPass {
	p := &replPass{}
	p.reg0, p.rreg0, p.rt0, p.blob0, p.rs0 = snap(w.reg), snap(w.replicaReg), readRuntime(), w.fw.BlobStats(), w.rep.Stats()
	f0, b0 := w.counts.changeFrames.Load(), w.counts.changeBytes.Load()
	poll := startPoller(func() int64 { return snap(w.blobReg).scalar("blob_queue_depth") },
		func() int64 { return int64(w.rep.Lag()) })
	start := time.Now()
	win := newWindow(start, dur, minOps)
	var wg sync.WaitGroup
	var rd replPass // the reader's tally, merged below
	wg.Add(2)
	go func() {
		defer wg.Done()
		w.writer(rand.New(rand.NewSource(seed*7919+1)), win, tr, p)
	}()
	go func() {
		defer wg.Done()
		w.reader(rand.New(rand.NewSource(seed*7919+2)), win, tr, &rd)
	}()
	wg.Wait()
	p.elapsed = time.Since(start)
	peaks := poll.finish()
	p.queueMax, p.lagMax = peaks[0], peaks[1]
	p.rt1, p.reg1, p.rreg1, p.blob1, p.rs1 = readRuntime(), snap(w.reg), snap(w.replicaReg), w.fw.BlobStats(), w.rep.Stats()
	p.heapMB, p.win = win.heapMB(), win
	p.frames, p.frameBytes = w.counts.changeFrames.Load()-f0, w.counts.changeBytes.Load()-b0
	p.read, p.reads = rd.read, rd.reads
	p.attempted += rd.attempted
	p.failed += rd.failed
	p.problems = append(p.problems, rd.problems...)
	p.errs = append(p.errs, rd.errs...)
	return p
}

// timed runs fn as a span under root, tallying it into p.
func timed(p *replPass, tr *tracer, name string, op int64, root open, lat *latencies, fn func() error) bool {
	sp := tr.start(name, op, root.id)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.end()
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, fmt.Sprintf("%s: %v", name, err))
		}
		return false
	}
	lat.add(d)
	return true
}

func (w *replWorld) writer(rng *rand.Rand, win *window, tr *tracer, p *replPass) {
	for op := int64(1); win.begin(); op++ {
		ok, err := w.visibleWrite(rng, op, tr, p)
		win.end(count(ok))
		if err != nil {
			p.problems = append(p.problems, err.Error())
			return
		}
	}
}

// visibleWrite runs Reserve → CheckInData → Publish on a seeded pick of
// the cells and waits until the replica has applied the commit; ok
// reports that every step succeeded, after which readers may read the
// new version. Only a failure of the benchmark's own staging write is
// returned.
func (w *replWorld) visibleWrite(rng *rand.Rand, op int64, tr *tracer, p *replPass) (ok bool, err error) {
	i := rng.Intn(len(w.cvs))
	cv := w.cvs[i]
	data, err := w.stage()
	if err != nil {
		return false, err
	}
	root := tr.start("visible_write", op, 0)
	defer root.end()
	t0 := time.Now()
	if !timed(p, tr, "jcf.reserve", op, root, &p.reserve, func() error { return w.fw.Reserve(writerName, cv) }) {
		return false, nil
	}
	var dov oms.OID
	var ck latencies
	ok = timed(p, tr, "jcf.checkin", op, root, &ck, func() error {
		var err error
		dov, err = w.fw.CheckInData(writerName, w.dos[i], w.src)
		return err
	})
	// Publish even after a failed checkin: it releases the reservation.
	ok = timed(p, tr, "jcf.publish", op, root, &p.publish, func() error { return w.fw.Publish(writerName, cv) }) && ok
	lsn := w.fw.FeedLSN()
	ok = ok && timed(p, tr, "repl.waitfor", op, root, &p.wait, func() error { return w.rep.WaitFor(lsn, waitFor) })
	if !ok {
		return false, nil
	}
	p.visible.add(time.Since(t0))
	p.writes++
	w.mu.Lock()
	w.visible[i] = visibleDOV{dov, versionOf(data)}
	w.mu.Unlock()
	return true, nil
}

// reader checks seeded picks of the visible versions out of the replica
// view and verifies their bytes.
func (w *replWorld) reader(rng *rand.Rand, win *window, tr *tracer, p *replPass) {
	out := filepath.Join(w.dir, "read.dat")
	for op := int64(1); win.begin(); op++ {
		i := rng.Intn(len(w.cvs))
		w.mu.Lock()
		vis := w.visible[i]
		w.mu.Unlock()
		if timed(p, tr, "replica.checkout", -op, open{}, &p.read, func() error { return w.view.CheckOutData(readerName, vis.dov, out) }) {
			p.reads++
			if err := checkFile(out, vis.v); err != nil && len(p.problems) < 5 {
				p.problems = append(p.problems, fmt.Sprintf("replica read of version %d: %v", vis.dov, err))
			}
		}
		win.end(0)
	}
}

// finalChecks verifies the replica converged to a consistent view.
func (w *replWorld) finalChecks(rep *report, p *replPass) {
	for _, pr := range p.problems {
		rep.problemf("replicated-read: %s", pr)
	}
	for _, e := range p.errs {
		rep.linef("replicated-read error: %s", e)
	}
	if err := w.rep.WaitFor(w.fw.FeedLSN(), waitFor); err != nil {
		rep.problemf("replicated-read: final catch-up: %v", err)
		return
	}
	if bad := w.view.CheckConsistency(); len(bad) > 0 {
		rep.problemf("replicated-read: replica CheckConsistency: %d problems, first: %v", len(bad), bad[0])
	}
}

func runReplicatedRead(cfg config) (*report, error) {
	rep := newReport()
	w, setup, err := setupMedian(cfg, "repl", func(dir string) (*replWorld, error) {
		return buildReplWorld(cfg, dir, nil)
	})
	if err != nil {
		return nil, err
	}
	ref := w.drive(cfg.seed, passDur(cfg), passMinOps(cfg), nil)
	w.finalChecks(rep, ref)
	w.close()
	rep.linef("replicated-read: primary + 1 replica over TCP loopback, %d published cells; 1 writer (reserve→checkin→publish→WaitFor) and 1 reader (replica CheckOutData), closed loop", replCellCount(cfg))
	rep.linef("%s", latencyLine("replicated-read", "replica_read (one CheckOutData on the replica view)", &ref.read))
	rep.linef("replicated-read replica_reads_per_s: %.4f 1/s", float64(ref.reads)/ref.elapsed.Seconds())
	err = rep.record(cfg, setup, summary{workload: "replicated-read", op: "visible (Reserve start → replica WaitFor return)",
		lat: &ref.visible, ops: ref.writes, rate: "visible_writes_per_s", units: ref.writes, elapsed: ref.elapsed,
		cpu: ref.rt1.cpu - ref.rt0.cpu, win: ref.win, heapMB: ref.heapMB, attempted: ref.attempted, failed: ref.failed})
	if err != nil || !cfg.trace {
		return rep, err
	}

	tr := newTracer()
	tw, _, err := setupMedian(cfg, "repl-traced", func(dir string) (*replWorld, error) {
		return buildReplWorld(cfg, dir, tr)
	})
	if err != nil {
		return nil, err
	}
	tp := tw.drive(cfg.seed, passDur(cfg), 0, tr)
	tw.finalChecks(rep, tp)
	tw.close()
	L := rep.layers
	L["workload.replica_read_p50_ms"] = ms(ref.read.p50())
	if _, v, ok := tail(&ref.read, 0.99); ok {
		L["workload.replica_read_p99_ms"] = ms(v)
	}
	L["workload.replica_reads_per_s"] = float64(ref.reads) / ref.elapsed.Seconds()
	fillJCFCheckin(L, tp.reg0, tp.reg1)
	L["jcf.publish_ms"] = ms(tp.publish.p50())
	L["jcf.reserve_ms"] = ms(tp.reserve.p50())
	fillOMS(L, tp.reg0, tp.reg1, tp.writes)
	L["oms.apply_replicated_ms"] = histMeanMs(tp.rreg0, tp.rreg1, "oms_apply_replicated_ns")
	L["blobstore.put_ms"] = ms(tr.durations("cas.put").p50())
	L["blobstore.upload_ms"] = histMeanMs(tp.reg0, tp.reg1, "blob_upload_ns")
	L["blobstore.queue_depth_max"] = float64(tp.queueMax)
	L["blobstore.dedup_ratio"] = ratio(float64(tp.blob1.LogicalIn-tp.blob0.LogicalIn), float64(tp.blob1.PhysicalIn-tp.blob0.PhysicalIn))
	L["blobstore.fetch_ms"] = histMeanMs(tp.rreg0, tp.rreg1, "repl_blob_fetch_ns")
	L["blobstore.fetch_share"] = ratio(float64(histDeltaCount(tp.rreg0, tp.rreg1, "repl_blob_fetch_ns")), float64(tp.reads))
	L["repl.waitfor_ms"] = ms(tp.wait.p50())
	L["repl.frames_per_write"] = ratio(float64(tp.frames), float64(tp.writes))
	L["repl.bytes_per_write"] = ratio(float64(tp.frameBytes), float64(tp.writes))
	L["repl.conn_send_ms"] = ms(tr.durations("repl.pub.send").p50())
	L["repl.conn_recv_ms"] = ms(tr.durations("repl.replica.recv").p50())
	L["repl.replica_lag_max"] = float64(tp.lagMax)
	L["repl.reconnects"] = float64(tp.rs1.Reconnects - tp.rs0.Reconnects)
	L["repl.bootstraps"] = float64(tp.rs1.Bootstraps - tp.rs0.Bootstraps)
	fillRuntime(L, ref.rt0, ref.rt1, ref.writes+ref.reads)
	L["obs.trace_overhead_pct"] = overheadPct(&ref.visible, &tp.visible)
	rep.linef("replicated-read traced: %d writes, %d reads, %d change frames", tp.writes, tp.reads, tp.frames)
	return rep, tr.write(cfg.traceOut)
}
