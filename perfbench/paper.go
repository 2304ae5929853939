package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"texcache"
)

// The paper workload is the researcher's path: every registered
// experiment at scale 4 in one texcache.Run batch with the in-memory
// trace cache and no stores. One operation is a fresh child process
// with a new trace cache: its cold batch renders every trace, and its
// warm batch finds them all cached and re-decodes. The inputs are the
// paper's fixed experiments, so the seed changes nothing.
const paperScale = 4

// paperProcs is the child's GOMAXPROCS, and so its default worker and
// render-worker count. With two workers on two shared vCPUs a batch now
// and then took 30% longer than the next one in the same process (which
// experiment ends last on which core); on one CPU, batches in one
// process agree within 10%, and what is left between runs is mostly the
// host's own drift.
const paperProcs = 1

// paperSetups is how many set-ups run on each side of the timed window.
const paperSetups = 25

// paperBatch is one batch as the child process reports it.
type paperBatch struct {
	Wall    time.Duration     `json:"wall_ns"`
	Outputs map[string]string `json:"outputs"`
	Errs    []string          `json:"errors,omitempty"`
}

// paperRun is the child's whole report.
type paperRun struct {
	Cold, Warm paperBatch
}

// paperChild is the child-process entry point: run a cold batch and
// then a warm batch over one trace cache on paperProcs CPUs, and print
// them as JSON.
func paperChild(args []string) int {
	runtime.GOMAXPROCS(paperProcs)
	fl := flag.NewFlagSet("paper-child", flag.ContinueOnError)
	exps := fl.String("exp", "", "comma-separated experiment IDs (default all)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	req := texcache.ExperimentRequest{Scale: paperScale}
	if *exps != "" {
		req.Experiments = strings.Split(*exps, ",")
	}
	// texsim always collects metrics; so does the batch it stands for.
	texcache.AttachMetrics(texcache.NewMetricsRegistry())
	defer texcache.DetachMetrics()
	tc := texcache.NewTraceCache()
	var out paperRun
	for _, into := range []*paperBatch{&out.Cold, &out.Warm} {
		b := paperBatch{Outputs: map[string]string{}}
		start := time.Now()
		results, err := texcache.Run(context.Background(), req, texcache.WithTraceProvider(tc))
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper-child:", err)
			return 1
		}
		for r := range results {
			b.Outputs[r.ID] = r.Output
			if r.Err != nil {
				b.Errs = append(b.Errs, fmt.Sprintf("%s: %v", r.ID, r.Err))
			}
		}
		b.Wall = time.Since(start)
		*into = b
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "paper-child:", err)
		return 1
	}
	return 0
}

// loadGoldens reads the committed text fixture of every registered
// experiment.
func loadGoldens(root string, ids []string) (map[string]string, error) {
	g := map[string]string{}
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(root, "testdata", "golden", id+".txt"))
		if err != nil {
			return nil, err
		}
		g[id] = string(b)
	}
	return g, nil
}

// checkPaperBatch compares one batch's outputs with the goldens.
func checkPaperBatch(o *outcome, name string, b paperBatch, goldens map[string]string) {
	for _, e := range b.Errs {
		o.problem("paper %s batch: %s", name, e)
	}
	if len(b.Outputs) != len(goldens) {
		o.problem("paper %s batch returned %d experiments, want %d", name, len(b.Outputs), len(goldens))
	}
	for id, want := range goldens {
		if got, ok := b.Outputs[id]; !ok || got != want {
			o.problem("paper %s batch: %s differs from testdata/golden/%s.txt", name, id, id)
		}
	}
}

// paperSetup loads the goldens and checks that the child's registry is
// exactly the set of committed fixtures.
func paperSetup(ctx context.Context, e *env) (map[string]string, []string, error) {
	ids := texcache.ExperimentIDs()
	if e.tiny {
		ids = []string{"table2.1", "fig5.7"}
	}
	goldens, err := loadGoldens(e.root, ids)
	if err != nil {
		return nil, nil, err
	}
	res, err := runProc(ctx, e.root, filepath.Join(e.bin, "texsim"), "-list")
	if err != nil {
		return nil, nil, err
	}
	listed := strings.Fields(strings.TrimPrefix(string(res.Stdout), "experiments:"))
	if !e.tiny && len(listed) != len(goldens) {
		return nil, nil, fmt.Errorf("texsim lists %d experiments, testdata/golden has %d", len(listed), len(goldens))
	}
	return goldens, ids, nil
}

// paperOp runs one child process (a cold batch and a warm one)
// and checks its outputs.
func paperOp(ctx context.Context, e *env, o *outcome, goldens map[string]string, ids []string) (paperRun, procResult, error) {
	args := []string{"paper-child"}
	if e.tiny {
		args = append(args, "-exp", strings.Join(ids, ","))
	}
	self, err := os.Executable()
	if err != nil {
		return paperRun{}, procResult{}, err
	}
	res, err := runProc(ctx, e.root, self, args...)
	var pr paperRun
	if err == nil {
		err = json.Unmarshal(res.Stdout, &pr)
	}
	if err != nil {
		return pr, res, err
	}
	checkPaperBatch(o, "cold", pr.Cold, goldens)
	checkPaperBatch(o, "warm", pr.Warm, goldens)
	return pr, res, nil
}

func runPaper(ctx context.Context, e *env) *outcome {
	o := newOutcome()
	// Set-up is a few milliseconds, mostly one process start. It runs
	// paperSetups times before the timed window and as many after it,
	// and the median of them all is reported, so neither a slow patch
	// of the host nor the builds just before the run move it.
	var setups []float64
	var goldens map[string]string
	var ids []string
	setup := func() bool {
		for i := 0; i < paperSetups; i++ {
			t0 := time.Now()
			var err error
			goldens, ids, err = paperSetup(ctx, e)
			if err != nil {
				o.problem("paper setup: %v", err)
				return false
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		return true
	}
	if !setup() {
		return o
	}
	var cold, warm, rss, peak []float64
	cp, wp := o.phase("cold"), o.phase("warm")
	err := timedLoop(ctx, e.seconds, 1, func() error {
		cp.Attempted++
		wp.Attempted++
		pr, res, err := paperOp(ctx, e, o, goldens, ids)
		if err != nil {
			cp.Failed++
			wp.Failed++
			return err
		}
		cp.Succeeded++
		wp.Succeeded++
		cold = append(cold, ms(pr.Cold.Wall))
		warm = append(warm, ms(pr.Warm.Wall))
		rss = append(rss, res.SampledPeakMB)
		peak = append(peak, res.PeakMB)
		return nil
	})
	if err != nil {
		o.problem("paper: %v", err)
		return o
	}
	if !setup() {
		return o
	}
	o.Metrics.set("setup_s", median(setups), "s")
	setE2E(o, cold, 0.99, warm, 0.99, rss)
	o.Named["paper.wall_s"] = median(cold) / 1000
	o.Named["paper.warm_wall_s"] = median(warm) / 1000
	o.Named["paper.peak_rss_mb"] = median(rss)
	o.Named["paper.kernel_peak_rss_mb"] = median(peak)
	return o
}

// setE2E sets the end-to-end metrics every workload reports: the
// median and tail of its cold and warm operations and its memory
// (the median of the per-operation figures).
func setE2E(o *outcome, cold []float64, coldQ float64, warm []float64, warmQ float64, rss []float64) {
	o.Metrics.set("cold_p50_ms", median(cold), "ms")
	o.Metrics.set("cold_tail_ms", tail(cold, coldQ), "ms")
	o.Metrics.set("warm_p50_ms", median(warm), "ms")
	o.Metrics.set("warm_tail_ms", tail(warm, warmQ), "ms")
	o.Metrics.set("rss_mb", median(rss), "MB")
	o.Detail["samples_ms"] = map[string][]float64{"cold": cold, "warm": warm}
}
