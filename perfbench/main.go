// Command perfbench is the texcache repository benchmark. It times the
// paper, grid and serve workloads end to end with tracing off, checks
// every output for correctness, and, with -trace 1, runs a traced pass
// that times the calls into each layer's public functions from this
// package's own code.
//
// Run it from the repository root through the launcher, which builds
// texsim, texserve and this program from source first:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a failed correctness check
// also makes the exit status 1. The line before it is the host
// provenance; a full record of the run (per-phase operation accounting,
// the workload-specific metric names, the spans of a traced run) is
// written under .bench_build/results. See README.md for the
// workloads, the metrics and the layer-to-end-to-end map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// phase is the operation accounting of one workload phase: every
// operation attempted is exactly one of succeeded, failed or refused
// (HTTP 429), and a failed or refused operation counts as missing its
// latency limit.
type phase struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Refused   int `json:"refused"`
}

// outcome is what one workload run hands back to main: the metrics of
// the requested kind, per-phase accounting, the correctness verdict and
// any extra detail for the run record.
type outcome struct {
	Metrics metrics           `json:"metrics"`
	Phases  map[string]*phase `json:"phases"`
	// Problems lists every failed correctness gate; empty means correct.
	Problems []string `json:"problems"`
	// Named maps the workload-specific metric names (paper.wall_s,
	// serve.hit_p99_ms, ...) onto their values, for the run record.
	Named  map[string]float64 `json:"named"`
	Detail map[string]any     `json:"detail,omitempty"`
}

func newOutcome() *outcome {
	return &outcome{Metrics: metrics{}, Phases: map[string]*phase{}, Named: map[string]float64{}, Detail: map[string]any{}}
}

func (o *outcome) phase(name string) *phase {
	p, ok := o.Phases[name]
	if !ok {
		p = &phase{}
		o.Phases[name] = p
	}
	return p
}

func (o *outcome) problem(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// env is everything a workload needs from the command line.
type env struct {
	root    string // repository checkout root
	bin     string // directory holding the texsim and texserve binaries
	work    string // scratch directory for this run, inside the checkout
	seed    int64
	seconds float64
	tr      *tracer // nil when tracing is off
	// tiny shrinks every workload for the benchmark's own tests.
	tiny bool
}

// workloads maps each workload name onto its untraced run.
var workloads = map[string]func(context.Context, *env) *outcome{
	"paper": runPaper,
	"grid":  runGrid,
	"serve": runServe,
}

func main() {
	os.Exit(run())
}

func run() int {
	if len(os.Args) > 1 && os.Args[1] == "paper-child" {
		return paperChild(os.Args[2:])
	}
	var (
		workload = flag.String("workload", "", "workload to run: paper, grid or serve")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 40, "how long the timed window measures")
		traceOn  = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
		root     = flag.String("root", ".", "repository checkout root")
		bin      = flag.String("bin", "", "directory holding the texsim and texserve binaries (default <root>/.bench_build/bin)")
		tiny     = flag.Bool("tiny", false, "run every workload at a tiny size (the benchmark's own tests)")
	)
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want paper, grid or serve)\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return fail(err)
	}
	if _, err := os.Stat(filepath.Join(absRoot, "testdata", "golden")); err != nil {
		return fail(fmt.Errorf("%s is not a texcache checkout: %w", absRoot, err))
	}
	if *bin == "" {
		*bin = filepath.Join(absRoot, ".bench_build", "bin")
	}
	if err := os.MkdirAll(filepath.Join(absRoot, ".bench_build"), 0o755); err != nil {
		return fail(err)
	}
	work, err := os.MkdirTemp(filepath.Join(absRoot, ".bench_build"), "run-"+*workload+"-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)

	e := &env{root: absRoot, bin: *bin, work: work, seed: *seed, seconds: *seconds, tiny: *tiny}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	host := provenance(absRoot)
	var out *outcome
	if *traceOn == 1 {
		e.tr = newTracer()
		out = runTraced(ctx, e)
	} else {
		out = wl(ctx, e)
	}
	if ctx.Err() != nil {
		return fail(ctx.Err())
	}

	attempted, failed := 0, 0
	for _, p := range out.Phases {
		attempted += p.Attempted
		failed += p.Failed + p.Refused
	}
	for _, p := range out.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	record := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *traceOn,
		"host": host, "outcome": out,
	}
	if e.tr != nil {
		record["spans"] = e.tr.spans()
	}
	if err := writeRecord(absRoot, fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *traceOn), record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
	}
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)
	final, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{len(out.Problems) == 0, max(attempted, 1), failed, out.Metrics})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(final))
	if len(out.Problems) > 0 {
		return 1 // a wrong answer fails the run, after reporting it
	}
	return 0
}

// writeRecord stores the full run record under .bench_build/results.
func writeRecord(root, name string, record any) error {
	dir := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func fail(err error) int {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "perfbench: interrupted")
	} else {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	return 1
}

// timedLoop calls op until the timed window is used up: the first
// minOps calls always run, and another starts only while it is
// expected to finish inside the window, so a run measures about
// -seconds of work without overshooting by a whole operation.
func timedLoop(ctx context.Context, seconds float64, minOps int, op func() error) error {
	start := time.Now()
	window := time.Duration(seconds * float64(time.Second))
	for n := 1; ; n++ {
		if err := op(); err != nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		elapsed := time.Since(start)
		if n >= minOps && elapsed+elapsed/time.Duration(n) > window {
			return nil
		}
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tail returns the q-quantile of xs when at least ten samples lie
// beyond it, and the maximum otherwise (a run with a handful of
// long operations has no well-sampled tail percentile).
func tail(xs []float64, q float64) float64 {
	if float64(len(xs))*(1-q) >= 10-1e-9 {
		return quantile(xs, q)
	}
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
