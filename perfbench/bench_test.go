package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/oms/backend"
)

// TestTinyWorkloads runs every workload at self-test size, untraced and
// traced, and requires every output check and fidelity guard to pass.
func TestTinyWorkloads(t *testing.T) {
	for name, fn := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, dur: 400 * time.Millisecond, trace: traced,
				tiny: true, setupReps: 1, root: t.TempDir()}
			rep, err := fn(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			for _, p := range rep.problems {
				t.Errorf("%s traced=%v: %s", name, traced, p)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", name, traced, rep.attempted, rep.failed)
			}
			if traced && len(rep.layers) != len(perLayer) {
				t.Errorf("%s: %d per-layer metrics, want %d", name, len(rep.layers), len(perLayer))
			}
		}
	}
}

// TestTailNeedsTenBeyond pins the percentile rule: a reported
// percentile always has at least minBeyond samples above it.
func TestTailNeedsTenBeyond(t *testing.T) {
	for n := 1; n <= 2500; n++ {
		l := &latencies{}
		for i := n; i > 0; i-- {
			l.add(time.Duration(i))
		}
		q, v, ok := tail(l, 0.99)
		if n < 20 {
			if ok {
				t.Fatalf("n=%d: reported p%g without %d samples beyond", n, q*100, minBeyond)
			}
			continue
		}
		if !ok {
			t.Fatalf("n=%d: no percentile", n)
		}
		above := 0
		for _, d := range l.d {
			if d > v {
				above++
			}
		}
		if above < minBeyond {
			t.Fatalf("n=%d: p%g has %d samples beyond", n, q*100, above)
		}
		if (n >= 1000) != (q == 0.99) {
			t.Fatalf("n=%d: got p%g", n, q*100)
		}
	}
}

// TestTracedBackendForwardsDeltaCapable: the wrapper must not hide the
// segment backend's delta support, or every save would silently become
// a full snapshot.
func TestTracedBackendForwardsDeltaCapable(t *testing.T) {
	seg, err := backend.OpenSegment(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	file, err := backend.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !newTracedBackend(seg, newTracer(), "b").SupportsDeltas() {
		t.Error("wrapped segment backend lost delta support")
	}
	if newTracedBackend(file, nil, "b").SupportsDeltas() {
		t.Error("wrapped file backend claims delta support")
	}
}

// TestSelfTime checks a span's self time excludes its children's union.
func TestSelfTime(t *testing.T) {
	if got := covered(0, 100, [][2]int64{{10, 30}, {20, 40}, {90, 120}}); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalogue the program prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program has %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
