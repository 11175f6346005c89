// Command perfbench is the repository benchmark. It drives the coupled
// JCF–FMCAD system only through its public Go API, in one of three
// closed-loop workloads:
//
//	designer-flow    two designers run reserve → schematic → simulate →
//	                 layout → publish on their own halves of a 128-cell
//	                 hybrid library (core, fmcad, tools, jcf copy-in/out)
//	checkin-commit   one designer runs CheckInData then a differential
//	                 SaveTo on a segment backend with a file-backend CAS
//	                 (jcf persistence, oms cut, backend, blobstore write)
//	replicated-read  a writer publishes checkins that a TCP replica must
//	                 make visible while a reader checks data out of the
//	                 replica view (oms, repl, blobstore read, jcf publish)
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the program runs exactly as shipped and reports the
// end-to-end metrics; with --trace 1 it first repeats a short untraced
// reference pass, then a traced pass with the benchmark's own backend
// and transport wrappers, probes and registry snapshots, and reports the
// per-layer metrics. The last line of standard output is one JSON
// object {correct, attempted, failed, metrics}; the lines before it
// name every metric of the workload with its unit and sample count.
// All state lives under .bench_build/ in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	// tiny shrinks every size for the self-test.
	tiny bool
	// setupReps is how many times setup runs; setup_s is their median.
	setupReps int
	// root is the scratch directory all state lives under.
	root string
	// traceOut, when set, receives the traced run's spans as JSON lines.
	traceOut string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(cfg config) (*report, error){
	"designer-flow":   runDesignerFlow,
	"checkin-commit":  runCheckinCommit,
	"replicated-read": runReplicatedRead,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: designer-flow, checkin-commit or replicated-read")
	seed := fs.Int64("seed", 1, "seed the inputs derive from")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	base := filepath.Join(wd, ".bench_build")
	root, err := os.MkdirTemp(mkdirAll(base), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)
	cfg := config{
		workload:  *name,
		seed:      *seed,
		dur:       time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		setupReps: 3,
		root:      root,
	}
	if cfg.trace {
		// A traced run reports no setup_s; one build suffices.
		cfg.setupReps = 1
		cfg.traceOut = filepath.Join(mkdirAll(filepath.Join(base, "traces")),
			fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
	}
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return emit(rep, cfg.trace)
}

// emit prints the human-readable lines and the result line; it returns
// the exit code (non-zero when an output check failed).
func emit(rep *report, traced bool) int {
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %s\n", p)
	}
	want := endToEnd
	got := rep.e2e
	if traced {
		want, got = perLayer, rep.layers
	}
	res := result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metric{}}
	for _, d := range want {
		v, ok := got[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// mkdirAll creates dir (best effort; a failure surfaces at first use)
// and returns it.
func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	return dir
}
