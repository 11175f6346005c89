package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// report is what one workload run produces.
type report struct {
	attempted, failed int64
	// problems are output-check failures; any one fails the run.
	problems []string
	e2e      map[string]float64
	layers   map[string]float64
	lines    []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: newLayers()}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// summary is what every workload's untraced pass reports in common.
type summary struct {
	workload string
	// op names the primary operation; lat holds its wall latencies and
	// ops counts the completed ones.
	op  string
	lat *latencies
	ops int64
	// rate names the throughput figure; units are what it counts.
	rate    string
	units   int64
	elapsed time.Duration
	// cpu is the process CPU time over the pass; win its window.
	cpu               time.Duration
	win               *window
	heapMB            float64
	attempted, failed int64
}

// record prints the figures every workload shares and fills the
// end-to-end metrics (untraced run) or the workload.* per-layer entries
// (the traced run's untraced reference pass).
func (r *report) record(cfg config, setup setupTimes, s summary) error {
	r.attempted, r.failed = s.attempted, s.failed
	rate := float64(s.units) / s.elapsed.Seconds()
	// The heap reading's own collections are not the workload's cost.
	cpu := ratio(ms(s.cpu-time.Duration(s.win.heapCPU.Load())), float64(s.ops))
	failRatio := ratio(float64(s.failed), float64(s.attempted))
	r.linef("%s setup_s: %.4f CPU s, %.4f s wall (median of %d builds)", s.workload, setup.cpu.Seconds(), setup.wall.Seconds(), setup.builds)
	r.linef("%s", latencyLine(s.workload, s.op, s.lat))
	r.linef("%s %s: %.4f 1/s (%d in %.2f s)", s.workload, s.rate, rate, s.units, s.elapsed.Seconds())
	r.linef("%s op_cpu_ms: %.4f CPU ms per op, whole process (%d ops)", s.workload, cpu, s.ops)
	r.linef("%s peak_heap_mb: %.4f MiB (retained heap at op %d)", s.workload, s.heapMB, minOps)
	r.linef("%s fail_ratio: %.6f (%d of %d calls failed)", s.workload, failRatio, s.failed, s.attempted)
	if cfg.trace {
		L := r.layers
		L["workload.fail_ratio"] = failRatio
		L["workload.op_p50_ms"] = ms(s.lat.p50())
		if _, v, ok := tail(s.lat, 0.99); ok {
			L["workload.op_p99_ms"] = ms(v)
		}
		L["workload.ops_per_s"] = rate
		return nil
	}
	if s.ops < minOps && !cfg.tiny {
		return fmt.Errorf("%s: only %d ops in %.1f s; the heap reading and a p99 need %d", s.workload, s.ops, s.elapsed.Seconds(), minOps)
	}
	r.e2e["setup_s"] = setup.cpu.Seconds()
	r.e2e["op_cpu_ms"] = cpu
	r.e2e["peak_heap_mb"] = s.heapMB
	return nil
}

// closer is a workload world that owns on-disk state and goroutines.
type closer interface{ close() }

// setupTimes is the median cost of one set-up.
type setupTimes struct {
	wall, cpu time.Duration
	builds    int
}

// setupMedian builds a world at least cfg.setupReps times, each in a
// fresh directory, closing every build but the last, and returns the
// last world with the median wall and CPU time of one build. The heap is
// collected afterwards so set-up garbage does not land in the measured
// window.
func setupMedian[W closer](cfg config, tag string, build func(dir string) (W, error)) (W, setupTimes, error) {
	var w W
	var walls, cpus []time.Duration
	var total time.Duration
	// Start every build and the measured window from a quiet disk: flush
	// whatever earlier runs and builds left dirty in the page cache.
	syscall.Sync()
	runtime.GC()
	for i := 0; ; i++ {
		dir := filepath.Join(cfg.root, fmt.Sprintf("%s-setup%d", tag, i))
		t0, c0 := time.Now(), cpuTime()
		nw, err := build(dir)
		if err != nil {
			return w, setupTimes{}, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		walls = append(walls, d)
		cpus = append(cpus, cpuTime()-c0)
		total += d
		if i+1 < cfg.setupReps || (cfg.setupReps > 1 && total < setupBudget && i+1 < maxSetupReps) {
			nw.close()
			// Each build starts from a flushed disk and a collected heap.
			syscall.Sync()
			runtime.GC()
			continue
		}
		w = nw
		break
	}
	syscall.Sync()
	runtime.GC()
	return w, setupTimes{wall: medianDur(walls), cpu: medianDur(cpus), builds: len(walls)}, nil
}

// minOps is how many primary ops an end-to-end pass needs so that its
// p99 has minBeyond samples beyond it.
const minOps = 100 * minBeyond

// window decides when a measured pass ends: at its deadline, unless
// fewer than minOps primary ops have completed by then; such a pass runs
// on until they have, but never past three times its length.
//
// Every op runs between begin and end. The op that completes the
// minOps-th primary op waits until no other op is in flight and takes
// the pass's heap reading, so every run reads the heap at the same
// amount of work and with no client allocating.
type window struct {
	deadline, hard time.Time
	minOps         int64
	ops            atomic.Int64
	heap           atomic.Int64
	gate           sync.RWMutex
	// heapCPU is the CPU time the heap reading itself took.
	heapCPU atomic.Int64
}

func newWindow(start time.Time, dur time.Duration, minOps int64) *window {
	return &window{deadline: start.Add(dur), hard: start.Add(3 * dur), minOps: minOps}
}

// begin reports whether to start another op; if so, the caller runs it
// and then calls end.
func (w *window) begin() bool {
	now := time.Now()
	if !now.Before(w.deadline) && (w.ops.Load() >= w.minOps || !now.Before(w.hard)) {
		return false
	}
	w.gate.RLock()
	return true
}

// end closes an op that completed primary primary ops.
func (w *window) end(primary int64) {
	w.gate.RUnlock()
	if n := w.ops.Add(primary); n >= w.minOps && n-primary < w.minOps && w.minOps > 0 {
		w.gate.Lock()
		c := cpuTime()
		w.heap.Store(retainedHeap())
		w.heapCPU.Store(int64(cpuTime() - c))
		w.gate.Unlock()
	}
}

// count is 1 for true, 0 for false.
func count(ok bool) int64 {
	if ok {
		return 1
	}
	return 0
}

// heapMB returns the heap reading taken at the minOps-th op, or the
// retained heap now when the pass never got that far.
func (w *window) heapMB() float64 {
	h := w.heap.Load()
	if h == 0 {
		h = retainedHeap()
	}
	return float64(h) / (1 << 20)
}

// A quick set-up is repeated beyond cfg.setupReps until the builds
// together take setupBudget (at most maxSetupReps builds), so that the
// median of a millisecond-scale set-up is still steady.
const (
	setupBudget  = 2 * time.Second
	maxSetupReps = 25
)

// Payload mix shared by checkin-commit and replicated-read: 7/8 of the
// checkins carry 4 KiB (stored inline), 1/8 carry 256 KiB (spilled to
// the CAS at the 64 KiB threshold), and a quarter of the spilled ones
// repeat earlier content so the CAS deduplicates them.
const (
	inlineSize  = 4 << 10
	spilledSize = 256 << 10
	spillAt     = 64 << 10
	// repeatRing is how many recent spilled payloads a repeat draws from.
	repeatRing = 8
)

// payloadGen derives checkin payloads from a seed. Fresh payloads are a
// window of one seeded random buffer stamped with a counter and the
// seed, so every fresh payload has its own digest.
type payloadGen struct {
	rng     *rand.Rand
	seed    int64
	base    []byte
	n       uint64
	spilled [][]byte
}

func newPayloadGen(seed int64) *payloadGen {
	g := &payloadGen{rng: rand.New(rand.NewSource(seed)), seed: seed, base: make([]byte, 2*spilledSize)}
	g.rng.Read(g.base)
	return g
}

// next returns the next payload and whether it spills.
func (g *payloadGen) next() (data []byte, spills bool) {
	spills = g.rng.Intn(8) == 0
	if spills && len(g.spilled) > 0 && g.rng.Intn(4) == 0 {
		return g.spilled[g.rng.Intn(len(g.spilled))], true
	}
	size := inlineSize
	if spills {
		size = spilledSize
	}
	off := g.rng.Intn(len(g.base) - size)
	data = append([]byte(nil), g.base[off:off+size]...)
	g.n++
	binary.BigEndian.PutUint64(data[0:], g.n)
	binary.BigEndian.PutUint64(data[8:], uint64(g.seed))
	if spills {
		if len(g.spilled) < repeatRing {
			g.spilled = append(g.spilled, data)
		} else {
			g.spilled[g.rng.Intn(repeatRing)] = data
		}
	}
	return data, spills
}

// version is one acknowledged checkin the output checks verify.
type version struct {
	size int64
	sum  [32]byte
}

func versionOf(data []byte) version {
	return version{size: int64(len(data)), sum: sha256.Sum256(data)}
}

// checkFile verifies that the file at path holds exactly v.
func checkFile(path string, v version) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if got := versionOf(data); got != v {
		return fmt.Errorf("content mismatch: %d bytes sha256 %x, want %d bytes sha256 %x", got.size, got.sum[:6], v.size, v.sum[:6])
	}
	return nil
}

// diskBytes sums the sizes of the regular files under dirs.
func diskBytes(dirs ...string) (int64, error) {
	var total int64
	for _, d := range dirs {
		err := filepath.WalkDir(d, func(_ string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.Type().IsRegular() {
				fi, err := e.Info()
				if err != nil {
					return err
				}
				total += fi.Size()
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// removeDir deletes a world's directory, reporting (not failing on) an
// error: the whole run root is removed at exit anyway.
func removeDir(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cleanup %s: %v\n", dir, err)
	}
}
