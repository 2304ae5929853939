package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"texcache"
)

// binDir holds texsim, texserve and perfbench built once for the tests.
var binDir string

// TestMain builds the binaries the workloads drive, and lets the test
// binary stand in for perfbench when a workload starts its paper child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "paper-child" {
		os.Exit(paperChild(os.Args[2:]))
	}
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	for _, pkg := range []string{"texcache/cmd/texsim", "texcache/cmd/texserve", "."} {
		out := filepath.Join(dir, filepath.Base(pkg))
		if pkg == "." {
			out = filepath.Join(dir, "perfbench")
		}
		if b, err := exec.Command("go", "build", "-o", out, pkg).CombinedOutput(); err != nil {
			os.RemoveAll(dir)
			panic("building " + pkg + ": " + string(b))
		}
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []layerMetric                 `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runCommand runs the benchmark the way its launcher does, at the tiny
// size, and returns the parsed last line of its output.
func runCommand(t *testing.T, workload string, trace int) (attempted int, got metrics) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "perfbench"), "-root", "..", "-bin", binDir, "-tiny",
		"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", fmt.Sprint(trace))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s trace %d: %v\n%s", workload, trace, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var last struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s trace %d: last line %q: %v", workload, trace, lines[len(lines)-1], err)
	}
	if !strings.HasPrefix(lines[len(lines)-2], "host {") {
		t.Errorf("%s trace %d: no host provenance line before the result", workload, trace)
	}
	if last.Failed != 0 {
		t.Errorf("%s trace %d: %d failed operations\n%s", workload, trace, last.Failed, stderr.String())
	}
	if !last.Correct {
		t.Errorf("%s trace %d: not correct\n%s", workload, trace, stderr.String())
	}
	return last.Attempted, last.Metrics
}

// TestEveryMetricEmitted runs each workload at a tiny size, untraced and
// traced, and checks that every metric BENCHMARK.json names is emitted
// with its unit (and nothing else).
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %s, the benchmark has none by that name", w.Name)
		}
	}
	want := map[int]map[string]string{0: {}, 1: {}}
	for _, m := range spec.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[1][m.Name] = m.Unit
	}
	// Every workload, gated or not, reports the same metric set.
	for name := range workloads {
		for trace := 0; trace <= 1; trace++ {
			attempted, got := runCommand(t, name, trace)
			if attempted < 1 {
				t.Errorf("%s trace %d: attempted %d", name, trace, attempted)
			}
			for metric, unit := range want[trace] {
				m, ok := got[metric]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", name, trace, metric)
				case m.Unit != unit:
					t.Errorf("%s trace %d: metric %s has unit %q, want %q", name, trace, metric, m.Unit, unit)
				}
			}
			for metric := range got {
				if _, ok := want[trace][metric]; !ok {
					t.Errorf("%s trace %d: metric %s is not in BENCHMARK.json", name, trace, metric)
				}
			}
			if trace == 1 {
				// Counts read from the program's registry, not the
				// benchmark's loops: a zero means the read missed.
				for _, metric := range []string{"pipeline.renders", "trace.decodes", "engine.trace_cache_renders",
					"engine.result_cache_hits", "engine.result_cache_misses", "cache.replay_addrs"} {
					if got[metric].Value <= 0 {
						t.Errorf("%s trace 1: program count %s is %v", name, metric, got[metric].Value)
					}
				}
			}
		}
	}
}

// TestPerLayerCatalogue keeps BENCHMARK.json's per-layer list equal to
// the metrics the traced run knows: the fixed list plus one exp.<id>_s
// per registered experiment.
func TestPerLayerCatalogue(t *testing.T) {
	spec := loadSpec(t)
	known := map[string]layerMetric{}
	for _, m := range layerMetrics {
		known[m.Name] = m
	}
	for _, id := range texcache.ExperimentIDs() {
		known[expMetricName(id)] = layerMetric{expMetricName(id), "s", "lower"}
	}
	if len(spec.PerLayer) != len(known) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(spec.PerLayer), len(known))
	}
	for _, m := range spec.PerLayer {
		if k := known[m.Name]; k != m {
			t.Errorf("BENCHMARK.json per-layer metric %+v, the traced run reports %+v", m, k)
		}
	}
}

func testEnv(t *testing.T) *env {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return &env{root: root, bin: binDir, work: t.TempDir(), seed: 5, seconds: 1, tiny: true}
}

func hasProblem(o *outcome, substr string) bool {
	for _, p := range o.Problems {
		if strings.Contains(p, substr) {
			return true
		}
	}
	return false
}

// The correctness gates: each must pass on the real expected output and
// fail once that expected output is corrupted.

func TestPaperGate(t *testing.T) {
	e := testEnv(t)
	ctx := context.Background()
	goldens, ids, err := paperSetup(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	if _, _, err := paperOp(ctx, e, o, goldens, ids); err != nil || len(o.Problems) != 0 {
		t.Fatalf("clean run: err %v, problems %v", err, o.Problems)
	}
	goldens[ids[0]] += "corrupted\n"
	o = newOutcome()
	if _, _, err := paperOp(ctx, e, o, goldens, ids); err != nil {
		t.Fatal(err)
	}
	if !hasProblem(o, ids[0]+" differs from testdata/golden") {
		t.Errorf("corrupted golden not caught: %v", o.Problems)
	}
}

func TestGridGates(t *testing.T) {
	e := testEnv(t)
	ctx := context.Background()
	fx, err := gridSetup(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(e.work, "store")
	o := newOutcome()
	if _, err := gridCoordinate(ctx, e, o, fx, store, "cold"); err != nil || len(o.Problems) != 0 {
		t.Fatalf("clean run: err %v, problems %v", err, o.Problems)
	}
	gridShardLayer(ctx, e, o, fx, store)
	if len(o.Problems) != 0 {
		t.Fatalf("clean shard merge: %v", o.Problems)
	}
	fx.refSHA = strings.Repeat("0", 64)
	if _, err := gridCoordinate(ctx, e, o, fx, store, "warm"); err != nil {
		t.Fatal(err)
	}
	if !hasProblem(o, "grid warm: merged stream sha256") {
		t.Errorf("corrupted reference hash not caught by the grid gate: %v", o.Problems)
	}
	gridShardLayer(ctx, e, o, fx, store)
	if !hasProblem(o, "shard merge: sha256") {
		t.Errorf("corrupted reference hash not caught by the shard merge gate: %v", o.Problems)
	}
}

func TestServeGates(t *testing.T) {
	e := testEnv(t)
	ctx := context.Background()
	fx, err := serveSetup(ctx, e, filepath.Join(e.work, "serve"))
	if err != nil {
		t.Fatal(err)
	}
	defer fx.srv.stop()
	o := newOutcome()
	if st := serveWindow(ctx, e, o, fx, 1, 1); len(o.Problems) != 0 || len(st.hitMS) == 0 || len(st.missMS) == 0 {
		t.Fatalf("clean window: %d hits, %d misses, problems %v", len(st.hitMS), len(st.missMS), o.Problems)
	}

	// Corrupt every captured hit body and every miss reference.
	for i := range fx.captured {
		fx.captured[i] = append(append([]byte(nil), fx.captured[i]...), '\n')
	}
	fx.reference = func(ctx context.Context, req texcache.ExperimentRequest) ([]byte, error) {
		b, err := inProcessNDJSON(ctx, req)
		return append(b, '\n'), err
	}
	o = newOutcome()
	serveWindow(ctx, e, o, fx, 1, 2)
	if !hasProblem(o, "hit body") {
		t.Errorf("corrupted hit capture not caught: %v", o.Problems)
	}
	if !hasProblem(o, "miss body") {
		t.Errorf("corrupted miss reference not caught: %v", o.Problems)
	}

	// The /metrics gate and the lateness bound.
	o = newOutcome()
	before, after := serverMetrics{Hits: 10, Misses: 3}, serverMetrics{Hits: 20, Misses: 5}
	checkServeCounts(o, before, after, 10, 2, time.Millisecond)
	if len(o.Problems) != 0 {
		t.Fatalf("matching counts flagged: %v", o.Problems)
	}
	checkServeCounts(o, before, after, 9, 2, time.Millisecond)
	checkServeCounts(o, before, after, 10, 3, time.Millisecond)
	checkServeCounts(o, before, after, 10, 2, serveLateBound+time.Millisecond)
	for _, want := range []string{"result-cache hits", "result-cache misses", "invalid run"} {
		if !hasProblem(o, want) {
			t.Errorf("gate %q did not fire: %v", want, o.Problems)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := tail(xs, 0.9); got != quantile(xs, 0.9) {
		t.Errorf("tail with 10 beyond p90 = %v, want the quantile %v", got, quantile(xs, 0.9))
	}
	if got := tail(xs, 0.99); got != 99 {
		t.Errorf("tail with 1 beyond p99 = %v, want the maximum 99", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}
