package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// latencies collects per-operation durations. Not safe for concurrent
// use; each client goroutine keeps its own and merges at the end.
type latencies struct{ d []time.Duration }

func (l *latencies) add(d time.Duration) { l.d = append(l.d, d) }

func (l *latencies) merge(o *latencies) { l.d = append(l.d, o.d...) }

func (l *latencies) n() int { return len(l.d) }

// sorted returns the samples in ascending order.
func (l *latencies) sorted() []time.Duration {
	s := append([]time.Duration(nil), l.d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// at returns the nearest-rank q-quantile of ascending samples s.
func at(s []time.Duration, q float64) time.Duration {
	r := int(math.Ceil(q * float64(len(s))))
	if r < 1 {
		r = 1
	}
	return s[r-1]
}

// beyond is how many of n ascending samples lie above the q-quantile.
func beyond(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return n - r
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailLevels are the percentiles tail may fall back to, highest first.
var tailLevels = []float64{0.999, 0.99, 0.9, 0.5}

// tail returns the want-quantile when at least minBeyond samples lie
// beyond it, else the highest lower level in tailLevels that has them.
// ok is false when no level qualifies: the helper never reports a
// percentile without minBeyond samples beyond it.
func tail(l *latencies, want float64) (q float64, v time.Duration, ok bool) {
	s := l.sorted()
	for _, q := range tailLevels {
		if q > want {
			continue
		}
		if beyond(len(s), q) >= minBeyond {
			return q, at(s, q), true
		}
	}
	return 0, 0, false
}

// p50 returns the median, or 0 with no samples.
func (l *latencies) p50() time.Duration {
	if len(l.d) == 0 {
		return 0
	}
	return at(l.sorted(), 0.5)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianDur returns the median of ds (mean of the middle pair).
func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencyLine formats p50 and the highest percentile with minBeyond
// samples beyond it, with the sample count.
func latencyLine(workload, name string, l *latencies) string {
	q, v, ok := tail(l, 0.99)
	if !ok {
		return fmt.Sprintf("%s %s: n=%d (too few samples for a tail)", workload, name, l.n())
	}
	return fmt.Sprintf("%s %s: p50=%.4f ms p%g=%.4f ms n=%d", workload, name, ms(l.p50()), q*100, ms(v), l.n())
}

// poller samples gauges every few milliseconds on its own goroutine and
// keeps each one's maximum.
type poller struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	max  []int64
}

// startPoller samples every fn until stopped.
func startPoller(fns ...func() int64) *poller {
	p := &poller{stop: make(chan struct{}), max: make([]int64, len(fns))}
	sample := func() {
		for i, fn := range fns {
			v := fn()
			p.mu.Lock()
			if v > p.max[i] {
				p.max[i] = v
			}
			p.mu.Unlock()
		}
	}
	sample()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return p
}

// finish stops the poller and returns each gauge's maximum.
func (p *poller) finish() []int64 {
	close(p.stop)
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int64(nil), p.max...)
}

// runtimeCounters reads the process-wide figures the runtime.* metrics
// and the CPU cost per op derive from.
type runtimeCounters struct {
	allocBytes uint64
	// gcCPU and busyCPU are the Go runtime's GC and non-idle CPU
	// seconds; cpu is the process's user+system time from the kernel.
	gcCPU, busyCPU float64
	cpu            time.Duration
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds"}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(),
		busyCPU: s[2].Value.Float64() - s[3].Value.Float64(), cpu: cpuTime()}
}

// retainedHeap collects garbage and returns the live heap. The
// workloads only ever add to their stores, so taken at the end of a
// measured pass this is the pass's peak retained heap; transient
// buffers are left out because their peak depends on when a collection
// happens to run, which no two runs share.
func retainedHeap() int64 {
	// The second cycle also drops what the first moved to sync.Pool
	// victim caches.
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// regSnap is a registry snapshot (obs.Registry.Snapshot).
type regSnap map[string]any

func snap(r *obs.Registry) regSnap { return r.Snapshot() }

func (s regSnap) hist(name string) (count, sumNs int64) {
	if m, ok := s[name].(map[string]int64); ok {
		return m["count"], m["sum_ns"]
	}
	return 0, 0
}

func (s regSnap) scalar(name string) int64 {
	if v, ok := s[name].(int64); ok {
		return v
	}
	return 0
}

// histMeanMs returns Δsum/Δcount of a registry histogram between two
// snapshots, in milliseconds (0 when nothing was observed).
func histMeanMs(before, after regSnap, name string) float64 {
	c0, s0 := before.hist(name)
	c1, s1 := after.hist(name)
	if c1 <= c0 {
		return 0
	}
	return float64(s1-s0) / float64(c1-c0) / 1e6
}

// histDeltaCount returns Δcount of a registry histogram.
func histDeltaCount(before, after regSnap, name string) int64 {
	c0, _ := before.hist(name)
	c1, _ := after.hist(name)
	return c1 - c0
}

// scalarDelta returns Δ of a registry counter.
func scalarDelta(before, after regSnap, name string) int64 {
	return after.scalar(name) - before.scalar(name)
}

// ratio divides, answering 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
