package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"texcache"
)

// The grid workload is design-space exploration: texsim -grid with
// -coordinate nproc over 4 scenes x scales {4,8} x 3 layouts x 3
// traversals (72 traces) x 63 LRU configurations. A cold phase runs on
// an empty trace store (render, encode, store writes); a warm phase
// runs fresh processes on the same store (store reads, decode,
// grouped replay, zero renders). The merged stream must hash like the
// single-process run computed in setup.

// gridSpec builds the workload's grid. The seed permutes the axis
// orders, which changes the enumeration (and so the shard split and
// the row order) but not the set of traces or configurations.
func gridSpec(seed int64, tiny bool) texcache.RequestGrid {
	rng := rand.New(rand.NewSource(seed))
	g := texcache.RequestGrid{
		Scenes: []string{"flight", "town", "guitar", "goblet"},
		Scales: []int{4, 8},
		Layouts: []texcache.RequestLayout{
			{Kind: "blocked", BlockW: 8}, {Kind: "blocked", BlockW: 4}, {Kind: "nonblocked"},
		},
		Traversals: []texcache.RequestTraversal{
			{Order: "horizontal"}, {Order: "vertical"}, {Order: "hilbert"},
		},
	}
	for _, kb := range []int{2, 4, 8, 16, 32, 64, 128} {
		for _, line := range []int{32, 64, 128} {
			for _, ways := range []int{1, 2, 4} {
				g.Configs = append(g.Configs, texcache.RequestCacheConfig{SizeBytes: kb << 10, LineBytes: line, Ways: ways})
			}
		}
	}
	if tiny {
		g.Scenes, g.Scales = []string{"goblet", "town"}, []int{16}
		g.Layouts, g.Traversals = g.Layouts[:1], g.Traversals[:2]
		g.Configs = g.Configs[:6]
	}
	rng.Shuffle(len(g.Scenes), func(i, j int) { g.Scenes[i], g.Scenes[j] = g.Scenes[j], g.Scenes[i] })
	rng.Shuffle(len(g.Layouts), func(i, j int) { g.Layouts[i], g.Layouts[j] = g.Layouts[j], g.Layouts[i] })
	rng.Shuffle(len(g.Traversals), func(i, j int) { g.Traversals[i], g.Traversals[j] = g.Traversals[j], g.Traversals[i] })
	rng.Shuffle(len(g.Configs), func(i, j int) { g.Configs[i], g.Configs[j] = g.Configs[j], g.Configs[i] })
	return g
}

// gridFixture is what the grid setup produces: the grid file and the
// reference hash of the single-process run.
type gridFixture struct {
	path   string
	grid   texcache.RequestGrid
	refSHA string
	rows   int
}

// gridSetup writes the grid file and computes the reference SHA-256 of
// the single-process run.
func gridSetup(ctx context.Context, e *env) (gridFixture, error) {
	g := gridSpec(e.seed, e.tiny)
	path := filepath.Join(e.work, "grid.json")
	if err := writeJSON(path, g); err != nil {
		return gridFixture{}, err
	}
	res, err := runProc(ctx, e.work, filepath.Join(e.bin, "texsim"), "-grid", path)
	if err != nil {
		return gridFixture{}, err
	}
	return gridFixture{path: path, grid: g, refSHA: sha256Hex(res.Stdout), rows: bytes.Count(res.Stdout, []byte("\n"))}, nil
}

// gridMinOps is the fewest cold/warm pairs a run measures, so a run on
// a slow host still has a median and a tail of more than one pass.
const gridMinOps = 2

// gridWorkers is the coordinator's worker-process count.
func gridWorkers() int { return runtime.NumCPU() }

// gridCoordinate runs one coordinated grid pass on the given store and
// checks the merged stream against the reference.
func gridCoordinate(ctx context.Context, e *env, o *outcome, fx gridFixture, store, name string) (procResult, error) {
	res, err := runProc(ctx, e.work, filepath.Join(e.bin, "texsim"),
		"-grid", fx.path, "-coordinate", fmt.Sprint(gridWorkers()), "-trace-dir", store)
	if err != nil {
		return res, err
	}
	if got := sha256Hex(res.Stdout); got != fx.refSHA {
		o.problem("grid %s: merged stream sha256 %s, single-process run %s", name, got, fx.refSHA)
	}
	return res, nil
}

func runGrid(ctx context.Context, e *env) *outcome {
	o := newOutcome()
	var setups []float64
	var fx gridFixture
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		var err error
		if fx, err = gridSetup(ctx, e); err != nil {
			o.problem("grid setup: %v", err)
			return o
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// peak[k] is the k-th pair's largest single-process RSS (the
	// coordinator or one worker) over its cold and warm passes.
	var cold, warm, coldPeak, warmPeak, peak []float64
	cp, wp := o.phase("cold"), o.phase("warm")
	iter := 0
	err := timedLoop(ctx, e.seconds, gridMinOps, func() error {
		iter++
		store := filepath.Join(e.work, fmt.Sprintf("traces-%d", iter))
		for _, ph := range []struct {
			name       string
			p          *phase
			into, peak *[]float64
		}{{"cold", cp, &cold, &coldPeak}, {"warm", wp, &warm, &warmPeak}} {
			ph.p.Attempted++
			res, err := gridCoordinate(ctx, e, o, fx, store, ph.name)
			if err != nil {
				ph.p.Failed++
				return err
			}
			ph.p.Succeeded++
			*ph.into = append(*ph.into, ms(res.Wall))
			*ph.peak = append(*ph.peak, res.PeakMB)
		}
		peak = append(peak, max(coldPeak[len(coldPeak)-1], warmPeak[len(warmPeak)-1]))
		return os.RemoveAll(store)
	})
	if err != nil {
		o.problem("grid: %v", err)
		return o
	}
	o.Metrics.set("setup_s", median(setups), "s")
	setE2E(o, cold, 0.99, warm, 0.99, peak)
	o.Named["grid.cold_s"] = median(cold) / 1000
	o.Named["grid.warm_s"] = median(warm) / 1000
	o.Named["grid.cold_peak_rss_mb"] = median(coldPeak)
	o.Named["grid.warm_peak_rss_mb"] = median(warmPeak)
	o.Detail["reference_sha256"] = fx.refSHA
	o.Detail["rows"] = fx.rows
	return o
}

// gridShardLayer times each -shard i/n slice alone on a warm store and
// the k-way merge of their streams, and checks that the merge plus the
// frontier reproduces the reference bytes.
func gridShardLayer(ctx context.Context, e *env, o *outcome, fx gridFixture, store string) {
	n := gridWorkers()
	var walls []float64
	streams := make([]io.Reader, n)
	for i := 0; i < n; i++ {
		_, end := e.tr.begin("shard.worker", 0)
		res, err := runProc(ctx, e.work, filepath.Join(e.bin, "texsim"),
			"-grid", fx.path, "-shard", fmt.Sprintf("%d/%d", i, n), "-trace-dir", store,
			"-workers", fmt.Sprint(max(1, runtime.NumCPU()/n)))
		end(int64(len(res.Stdout)))
		if err != nil {
			o.problem("shard %d/%d: %v", i, n, err)
			return
		}
		walls = append(walls, res.Wall.Seconds())
		streams[i] = bytes.NewReader(res.Stdout)
	}
	traces, err := texcache.GridTraceCount(fx.grid, 2)
	if err != nil {
		o.problem("grid trace count: %v", err)
		return
	}
	var merged bytes.Buffer
	col := texcache.NewGridCollector()
	_, end := e.tr.begin("shard.merge", 0)
	t0 := time.Now()
	err = texcache.MergeGridStreams(io.MultiWriter(&merged, col), streams, traces)
	mergeS := time.Since(t0).Seconds()
	end(int64(merged.Len()))
	if err == nil {
		err = col.WriteFrontier(&merged)
	}
	if err != nil {
		o.problem("shard merge: %v", err)
		return
	}
	if got := sha256Hex(merged.Bytes()); got != fx.refSHA {
		o.problem("shard merge: sha256 %s, single-process run %s", got, fx.refSHA)
	}
	sum, hi, lo := 0.0, walls[0], walls[0]
	for _, w := range walls {
		sum += w
		hi, lo = max(hi, w), min(lo, w)
	}
	o.Metrics.set("shard.worker_max_s", hi, "s")
	o.Metrics.set("shard.worker_min_s", lo, "s")
	o.Metrics.set("shard.imbalance", hi/(sum/float64(n)), "ratio")
	o.Metrics.set("shard.merge_s", mergeS, "s")
}
