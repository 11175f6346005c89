// Command benchdiff compares paired runs of the repository benchmark
// (perfbench) on a parent commit and on a change, metric by metric,
// against the end-to-end metrics and bounds BENCHMARK.json declares.
//
// Usage, from the repository root:
//
//	benchdiff [-bench BENCHMARK.json] parent.out change.out
//
// Each input file holds the standard output of one or more untraced
// perfbench runs of one workload, concatenated; every run's last line is
// its JSON result line, and the other lines are ignored. The i-th run of
// the parent pairs with the i-th run of the change, so alternate the two
// sides when taking the runs. For each end-to-end metric benchdiff
// prints each side's median and quartiles, the number of pairs in which
// the change reads better, the metric's bound and a verdict:
//
//	gain        the change is better in at least nine tenths of the pairs
//	            and the medians differ by more than the parent's
//	            interquartile range
//	regression  the change's median is worse than the parent's by more
//	            than the bound (a fraction of the parent's median)
//	unresolved  the parent's interquartile range is wider than the bound
//	            and not every change run beats every parent run
//	within      none of these
//
// A summary line gives each side's correct runs and failed calls.
// Exit status: 0 when no metric regresses and every run is correct, 1
// otherwise, 2 on a usage or input error.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json benchdiff reads.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// result is one perfbench result line.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side summarizes one metric over one side's runs.
type side struct {
	q1, median, q3 float64
}

// row is one metric's comparison.
type row struct {
	metric         metricSpec
	parent, change side
	wins, pairs    int
	verdict        string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark declaration with the end-to-end metrics and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-bench BENCHMARK.json] parent.out change.out")
		return 2
	}
	var sp spec
	if err := readJSON(*benchPath, &sp); err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	parent, err := readRunsFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	change, err := readRunsFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	rows, err := compare(sp, parent, change)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if err := writeReport(stdout, parent, change, rows); err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	ok := allCorrect(parent) && allCorrect(change)
	for _, r := range rows {
		ok = ok && r.verdict != "regression"
	}
	if !ok {
		return 1
	}
	return 0
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func readRunsFile(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs, err := readRuns(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// readRuns returns the result lines of r in order: the lines that are
// JSON objects with a metrics member.
func readRuns(r io.Reader) ([]result, error) {
	var runs []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if !bytes.HasPrefix(line, []byte("{")) {
			continue
		}
		var rn result
		if err := json.Unmarshal(line, &rn); err != nil {
			return nil, fmt.Errorf("result line %d: %w", len(runs)+1, err)
		}
		if rn.Metrics == nil {
			continue
		}
		runs = append(runs, rn)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no perfbench result lines")
	}
	return runs, nil
}

// compare builds one row per end-to-end metric. The sides must hold the
// same number of runs, each carrying every metric.
func compare(sp spec, parent, change []result) ([]row, error) {
	if len(parent) != len(change) {
		return nil, fmt.Errorf("%d parent runs but %d change runs; runs pair by order", len(parent), len(change))
	}
	var rows []row
	for _, m := range sp.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("metric %s: better is %q, want lower or higher", m.Name, m.Better)
		}
		pv, err := values(parent, m.Name)
		if err != nil {
			return nil, fmt.Errorf("parent: %w", err)
		}
		cv, err := values(change, m.Name)
		if err != nil {
			return nil, fmt.Errorf("change: %w", err)
		}
		rows = append(rows, compareMetric(m, pv, cv))
	}
	return rows, nil
}

func values(runs []result, name string) ([]float64, error) {
	out := make([]float64, len(runs))
	for i, rn := range runs {
		v, ok := rn.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("run %d has no metric %s", i+1, name)
		}
		out[i] = v.Value
	}
	return out, nil
}

// compareMetric applies the verdict rules in the package comment to one
// metric's paired values.
func compareMetric(m metricSpec, pv, cv []float64) row {
	// better reports whether a reads better than b.
	better := func(a, b float64) bool {
		if m.Better == "lower" {
			return a < b
		}
		return a > b
	}
	r := row{metric: m, parent: summarize(pv), change: summarize(cv), pairs: len(pv)}
	for i := range pv {
		if better(cv[i], pv[i]) {
			r.wins++
		}
	}
	p, c := r.parent.median, r.change.median
	iqr := r.parent.q3 - r.parent.q1
	// Every change run beats every parent run: the change's worst beats
	// the parent's best.
	allBetter := better(slices.Max(cv), slices.Min(pv))
	if m.Better == "higher" {
		allBetter = better(slices.Min(cv), slices.Max(pv))
	}
	switch {
	case 10*r.wins >= 9*r.pairs && better(c, p) && math.Abs(c-p) > iqr:
		r.verdict = "gain"
	case better(p, c) && math.Abs(c-p) > m.Bound*math.Abs(p):
		r.verdict = "regression"
	case iqr > m.Bound*math.Abs(p) && !allBetter:
		r.verdict = "unresolved"
	default:
		r.verdict = "within"
	}
	return r
}

// summarize returns the quartiles of vs by linear interpolation between
// the closest ranks.
func summarize(vs []float64) side {
	s := slices.Clone(vs)
	slices.Sort(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return side{q1: q(0.25), median: q(0.5), q3: q(0.75)}
}

func allCorrect(runs []result) bool {
	for _, rn := range runs {
		if !rn.Correct {
			return false
		}
	}
	return true
}

// writeReport prints the summary line and one table row per metric.
func writeReport(w io.Writer, parent, change []result, rows []row) error {
	sum := func(runs []result) string {
		correct, failed, attempted := 0, int64(0), int64(0)
		for _, rn := range runs {
			if rn.Correct {
				correct++
			}
			failed += rn.Failed
			attempted += rn.Attempted
		}
		return fmt.Sprintf("%d/%d correct, %d of %d calls failed", correct, len(runs), failed, attempted)
	}
	if _, err := fmt.Fprintf(w, "%d pairs; parent %s; change %s\n", len(parent), sum(parent), sum(change)); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tchange\tbetter in\tbound\tverdict")
	for _, r := range rows {
		delta := "n/a"
		if r.parent.median != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(r.change.median-r.parent.median)/r.parent.median)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d/%d\t%.0f%%\t%s\n", r.metric.Name, r.metric.Unit,
			fmtSide(r.parent), fmtSide(r.change), delta, r.wins, r.pairs, 100*r.metric.Bound, r.verdict)
	}
	return tw.Flush()
}

func fmtSide(s side) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.median, s.q1, s.q3)
}
