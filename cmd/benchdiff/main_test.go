package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchJSON = `{"end_to_end":[
{"name":"op_cpu_ms","unit":"ms","better":"lower","bound":0.25},
{"name":"peak_heap_mb","unit":"MiB","better":"lower","bound":0.05},
{"name":"rate","unit":"1/s","better":"higher","bound":0.1}]}`

// resultLines renders one perfbench output per value triple, with the
// human-readable lines perfbench prints before each result line.
func resultLines(correct bool, triples ...[3]float64) string {
	var b strings.Builder
	for _, v := range triples {
		fmt.Fprintf(&b, "checkin-commit op_cpu_ms: %g CPU ms per op\n", v[0])
		fmt.Fprintf(&b, `{"correct":%t,"attempted":100,"failed":0,"metrics":{"op_cpu_ms":{"value":%g,"unit":"ms"},"peak_heap_mb":{"value":%g,"unit":"MiB"},"rate":{"value":%g,"unit":"1/s"}}}`+"\n",
			correct, v[0], v[1], v[2])
	}
	return b.String()
}

func writeFiles(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestVerdicts: on fixed runs, a clear CPU gain, a heap regression beyond
// its 5% bound and a throughput within its bound get their verdicts, the
// quartiles and win counts are exact, and the exit status reports the
// regression.
func TestVerdicts(t *testing.T) {
	var parent, change [][3]float64
	for i := 0; i < 10; i++ {
		f := float64(i)
		parent = append(parent, [3]float64{3.0 + 0.04*f, 40, 100 + f})
		change = append(change, [3]float64{2.0 + 0.04*f, 43, 101 + f})
	}
	dir := writeFiles(t, map[string]string{
		"BENCHMARK.json": benchJSON,
		"parent.out":     resultLines(true, parent...),
		"change.out":     resultLines(true, change...),
	})
	var out, errOut bytes.Buffer
	code := run([]string{"-bench", filepath.Join(dir, "BENCHMARK.json"),
		filepath.Join(dir, "parent.out"), filepath.Join(dir, "change.out")}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (heap regression); stderr %s", code, errOut.String())
	}
	report := out.String()
	for _, want := range []string{
		"10 pairs; parent 10/10 correct, 0 of 1000 calls failed; change 10/10 correct, 0 of 1000 calls failed",
		"3.18 [3.09, 3.27]", // parent op_cpu_ms median [q1, q3]
		"2.18 [2.09, 2.27]",
		"-31.4%",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("report lacks %q:\n%s", want, report)
		}
	}
	verdicts := map[string]string{}
	wins := map[string]string{}
	for _, line := range strings.Split(report, "\n")[2:] {
		if f := strings.Fields(line); len(f) > 0 {
			verdicts[f[0]], wins[f[0]] = f[len(f)-1], f[len(f)-3]
		}
	}
	for metric, want := range map[string]string{"op_cpu_ms": "gain", "peak_heap_mb": "regression", "rate": "within"} {
		if verdicts[metric] != want {
			t.Fatalf("%s verdict %q, want %q:\n%s", metric, verdicts[metric], want, report)
		}
	}
	for metric, want := range map[string]string{"op_cpu_ms": "10/10", "peak_heap_mb": "0/10", "rate": "10/10"} {
		if wins[metric] != want {
			t.Fatalf("%s better in %s, want %s:\n%s", metric, wins[metric], want, report)
		}
	}
}

// TestUnresolvedAndNoGain: a spread wider than the bound with
// overlapping runs is unresolved; eight wins in ten is no gain.
func TestUnresolvedAndNoGain(t *testing.T) {
	m := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	spread := []float64{1, 2, 3, 4, 1, 2, 3, 4, 1, 2}
	shifted := []float64{0.9, 1.9, 2.9, 3.9, 0.9, 1.9, 2.9, 3.9, 0.9, 1.9}
	if r := compareMetric(m, spread, shifted); r.verdict != "unresolved" || r.wins != 10 {
		t.Fatalf("wide spread: %s with %d wins, want unresolved with 10", r.verdict, r.wins)
	}
	parent := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	change := []float64{8, 8, 8, 8, 8, 8, 8, 8, 11, 11}
	if r := compareMetric(m, parent, change); r.verdict != "within" || r.wins != 8 {
		t.Fatalf("8 of 10: %s with %d wins, want within with 8", r.verdict, r.wins)
	}
}

// TestInputErrors: unpaired runs, a missing metric and an input with no
// result line are usage errors.
func TestInputErrors(t *testing.T) {
	one := resultLines(true, [3]float64{1, 1, 1})
	two := resultLines(true, [3]float64{1, 1, 1}, [3]float64{1, 1, 1})
	dir := writeFiles(t, map[string]string{
		"BENCHMARK.json": benchJSON,
		"one.out":        one,
		"two.out":        two,
		"nometric.out":   `{"correct":true,"attempted":1,"failed":0,"metrics":{"op_cpu_ms":{"value":1}}}` + "\n",
		"empty.out":      "no results here\n",
	})
	for _, pair := range [][2]string{{"one.out", "two.out"}, {"one.out", "nometric.out"}, {"one.out", "empty.out"}} {
		var out, errOut bytes.Buffer
		code := run([]string{"-bench", filepath.Join(dir, "BENCHMARK.json"),
			filepath.Join(dir, pair[0]), filepath.Join(dir, pair[1])}, &out, &errOut)
		if code != 2 || errOut.Len() == 0 {
			t.Fatalf("%v: exit %d, stderr %q; want 2 and a message", pair, code, errOut.String())
		}
	}
}
