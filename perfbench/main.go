// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives three in-process, closed-loop workloads through the program's
// public packages and prints, as its last line of output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures; with -trace 1 the
// same workload runs with spans recorded around every layer boundary and
// the metrics are the per-layer figures derived from those spans and from
// the program's own counters. See README.md for the workloads, the
// layer → end-to-end map and reference figures.
//
// Usage (from the repository root; run.sh builds and runs this package):
//
//	bash perfbench/run.sh --workload dlrm-hybrid --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"secemb/internal/tensor"
)

// fixedTune replaces tensor.Autotune: five Autotune calls on a 2-vCPU host
// picked BlockRows of 32, 32, 8, 32 and 16, so a measured tune would make
// two runs of the same code execute different kernels. Workers 0 means
// every CPU the runtime may use.
var fixedTune = tensor.TuneConfig{Workers: 0, BlockRows: 32, InlineRows: 1}

// A workload builds its program state at least minSetups times and until
// the builds took setupBudget in total (at most maxSetups times); setup_s
// is the median build time, and the last build is the one measured.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	problems          []string // failed output checks; empty when correct
	metrics           map[string]metric
	notes             []string // human-readable lines printed before the JSON
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// problemf records a failed output check.
func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// checks collects the output-check failures of a timed phase. Checks run
// on the workload goroutines, so it is locked; only the first few messages
// are kept, but every failure is counted.
type checks struct {
	mu    sync.Mutex
	count int
	first []string
}

func (c *checks) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
	if len(c.first) < 5 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

// report moves the collected failures into o.
func (c *checks) report(o *outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o.problems = append(o.problems, c.first...)
	if c.count > len(c.first) {
		o.problemf("%d more failed checks", c.count-len(c.first))
	}
}

// traceDir is where traced runs write their spans, relative to the
// repository root the benchmark runs from.
const traceDir = ".bench_build/trace"

// config is one invocation.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

var workloads = map[string]func(config) (*outcome, error){
	"dlrm-hybrid": runDLRM,
	"llm-dual":    runLLM,
	"wire-embed":  runWire,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the workload's inputs")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload in {%s}, -seconds ≥ 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	tensor.SetTune(fixedTune)
	fmt.Printf("tune: %+v\n", tensor.CurrentTune())

	out, err := runWorkload(config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *name, p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(out.problems) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
