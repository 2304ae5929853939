package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"texcache"
)

// The traced pass is the layer suite: calls into each layer's public
// functions, each wrapped in a span recorded by this package, plus the
// counts the program already keeps in its obs registry. Spans stay in
// memory and go into the run record when the run ends. No tracing is
// added inside the program. The tracing overhead is measured in the
// same process, around the same kind of layer calls.

// layerMetric is one per-layer metric the traced pass reports.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// layerMetrics lists every per-layer metric with its unit and the
// direction an optimisation should move it. The exp.<id>_s entries
// follow, one per registered experiment.
var layerMetrics = []layerMetric{
	{"bench.trace_overhead_pct", "%", "lower"},
	{"pipeline.render_s", "s", "lower"},
	{"pipeline.renders", "count", "lower"},
	{"pipeline.render_ns_per_addr", "ns", "lower"},
	{"trace.encode_s", "s", "lower"},
	{"trace.decode_s", "s", "lower"},
	{"trace.decodes", "count", "lower"},
	{"trace.decode_ns_per_addr", "ns", "lower"},
	{"trace.store_save_s", "s", "lower"},
	{"trace.store_load_s", "s", "lower"},
	{"trace.store_bytes", "bytes", "lower"},
	{"cache.stackdist_ns_per_addr", "ns", "lower"},
	{"cache.groupsim_ns_per_addr", "ns", "lower"},
	{"cache.access_batch_ns_per_addr", "ns", "lower"},
	{"cache.replay_addrs", "count", "lower"},
	{"cache.groupsim_passes_saved", "count", "higher"},
	{"cache.fallback_configs", "count", "lower"},
	{"engine.busy_frac", "ratio", "higher"},
	{"engine.trace_cache_hits", "count", "higher"},
	{"engine.trace_cache_renders", "count", "lower"},
	{"engine.result_cache_hits", "count", "higher"},
	{"engine.result_cache_misses", "count", "lower"},
	{"engine.hit_service_ms", "ms", "lower"},
	{"engine.miss_service_ms", "ms", "lower"},
	{"report.ndjson_encode_s", "s", "lower"},
	{"shard.worker_max_s", "s", "lower"},
	{"shard.worker_min_s", "s", "lower"},
	{"shard.imbalance", "ratio", "lower"},
	{"shard.merge_s", "s", "lower"},
	{"texserve.admission_ms", "ms", "lower"},
	{"texserve.refused", "count", "lower"},
}

func expMetricName(id string) string { return "exp." + id + "_s" }

// layerScale is the scale of the in-process layer calls: the paper
// workload's, so layer costs compare with paper.wall_s directly.
func (e *env) layerScale() int {
	if e.tiny {
		return 16
	}
	return paperScale
}

// runTraced runs the layer suite. It is the same for every workload,
// because every traced run reports every per-layer metric.
func runTraced(ctx context.Context, e *env) *outcome {
	o := newOutcome()
	sfx, err := serveSetup(ctx, e, filepath.Join(e.work, "serve"))
	if err != nil {
		o.problem("serve setup: %v", err)
		return o
	}
	defer sfx.srv.stop()

	reg := texcache.NewMetricsRegistry()
	texcache.AttachMetrics(reg)
	defer texcache.DetachMetrics()

	traces := pipelineLayer(e, o)
	if len(traces) == 0 {
		return o
	}
	o.Metrics.set("bench.trace_overhead_pct", traceOverhead(traces), "%")
	traceLayer(e, o, traces)
	cacheLayer(ctx, e, o, reg, traces)
	tc := engineLayer(ctx, e, o, reg)
	expLayer(ctx, e, o, tc)
	serviceLayer(ctx, e, o, tc)
	shardLayer(ctx, e, o)

	// texserve: a 5 s window on the warmed server, reading its own
	// request timer for the admission wait and its result-cache counts.
	seconds := 5.0
	if e.tiny {
		seconds = 1
	}
	st := serveWindow(ctx, e, o, sfx, seconds, e.seed)
	o.Metrics.set("engine.result_cache_hits", float64(st.cacheHits), "count")
	o.Metrics.set("engine.result_cache_misses", float64(st.cacheMisses), "count")
	o.Metrics.set("texserve.admission_ms", st.admissionMS, "ms")
	o.Metrics.set("texserve.refused", float64(st.refused), "count")
	return o
}

// pipelineLayer renders each scene's paper-standard trace (blocked 8x8,
// the scene's own traversal) on the tile-parallel path.
func pipelineLayer(e *env, o *outcome) []*texcache.Trace {
	var traces []*texcache.Trace
	p := o.phase("layers")
	for _, name := range serveScenes {
		p.Attempted++
		scene, err := texcache.SceneByNameChecked(name, e.layerScale())
		if err != nil {
			p.Failed++
			o.problem("pipeline: %v", err)
			return nil
		}
		_, end := e.tr.begin("pipeline.render", 0)
		tr, _, err := scene.TraceParallel(texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8}, scene.DefaultTraversal(), 0)
		if err != nil {
			end(0)
			p.Failed++
			o.problem("pipeline: rendering %s: %v", name, err)
			return nil
		}
		end(int64(tr.Len()))
		p.Succeeded++
		traces = append(traces, tr)
	}
	d, work, _ := e.tr.sum("pipeline.render")
	o.Metrics.set("pipeline.render_s", d.Seconds(), "s")
	o.Metrics.set("pipeline.render_ns_per_addr", float64(d)/float64(max(work, 1)), "ns")
	return traces
}

// overheadPairs is how many untraced/traced rounds the overhead probe
// alternates; it reports their median difference.
const overheadPairs = 15

// traceOverhead times one round of layer calls (trace encode and decode
// of every rendered trace, a span around each call) with no tracer and
// with a fresh one, alternating which runs first, and returns the
// median of traced minus untraced as a percentage of untraced.
func traceOverhead(traces []*texcache.Trace) float64 {
	round := func(t *tracer) time.Duration {
		t0 := time.Now()
		for _, tr := range traces {
			_, end := t.begin("trace.encode", 0)
			c := texcache.CompactTraceFromTrace(tr)
			end(int64(tr.Len()))
			_, end = t.begin("trace.decode", 0)
			c.Decode()
			end(int64(tr.Len()))
		}
		return time.Since(t0)
	}
	var pct []float64
	for i := 0; i < overheadPairs; i++ {
		var off, on time.Duration
		if i%2 == 0 {
			off, on = round(nil), round(newTracer())
		} else {
			on, off = round(newTracer()), round(nil)
		}
		pct = append(pct, 100*float64(on-off)/float64(off))
	}
	return median(pct)
}

// traceLayer encodes, decodes, saves and loads every trace, checking
// each round trip returns the same addresses.
func traceLayer(e *env, o *outcome, traces []*texcache.Trace) {
	store, err := texcache.OpenTraceStore(filepath.Join(e.work, "layer-traces"))
	if err != nil {
		o.problem("trace store: %v", err)
		return
	}
	p := o.phase("layers")
	var stored int64
	for i, tr := range traces {
		p.Attempted++
		_, end := e.tr.begin("trace.encode", 0)
		c := texcache.CompactTraceFromTrace(tr)
		end(int64(tr.Len()))
		_, end = e.tr.begin("trace.decode", 0)
		dec := c.Decode()
		end(int64(tr.Len()))
		key := texcache.TraceStoreKey{Scene: serveScenes[i], Scale: e.layerScale(), Layout: "blocked8", Traversal: "default", Version: "perfbench"}
		_, end = e.tr.begin("trace.store_save", 0)
		err := store.Save(key, c)
		end(int64(c.SizeBytes()))
		_, end = e.tr.begin("trace.store_load", 0)
		loaded, ok := store.Load(key)
		end(int64(c.SizeBytes()))
		switch {
		case err != nil:
			p.Failed++
			o.problem("trace store save: %v", err)
			continue
		case !ok || loaded.Len() != tr.Len():
			p.Failed++
			o.problem("trace store: %s did not load back", key.Scene)
			continue
		case !equalAddrs(dec.Addrs, tr.Addrs) || !equalAddrs(loaded.Decode().Addrs, tr.Addrs):
			p.Failed++
			o.problem("trace codec: %s round trip changed the addresses", key.Scene)
			continue
		}
		p.Succeeded++
		stored += int64(c.SizeBytes())
	}
	for _, m := range []struct{ span, metric string }{
		{"trace.encode", "trace.encode_s"}, {"trace.decode", "trace.decode_s"},
		{"trace.store_save", "trace.store_save_s"}, {"trace.store_load", "trace.store_load_s"},
	} {
		d, _, _ := e.tr.sum(m.span)
		o.Metrics.set(m.metric, d.Seconds(), "s")
	}
	d, work, _ := e.tr.sum("trace.decode")
	o.Metrics.set("trace.decode_ns_per_addr", float64(d)/float64(max(work, 1)), "ns")
	o.Metrics.set("trace.store_bytes", float64(stored), "bytes")
}

func equalAddrs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cacheLayer times the three replay kernels over every trace: the
// stack-distance profiler, the grouped all-configuration sweep (with
// FIFO points that fall back to per-configuration caches) and the
// batched set-associative kernel.
func cacheLayer(ctx context.Context, e *env, o *outcome, reg *texcache.MetricsRegistry, traces []*texcache.Trace) {
	var cfgs []texcache.CacheConfig
	for _, rc := range gridSpec(e.seed, false).Configs {
		cfgs = append(cfgs, texcache.CacheConfig{SizeBytes: rc.SizeBytes, LineBytes: rc.LineBytes, Ways: rc.Ways})
	}
	cfgs = append(cfgs,
		texcache.CacheConfig{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4, Policy: texcache.ReplaceFIFO},
		texcache.CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, Policy: texcache.ReplaceFIFO})
	point := texcache.CacheConfig{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2} // one of the grid's configurations
	p := o.phase("layers")
	for _, tr := range traces {
		p.Attempted++
		work := int64(tr.Len())
		_, end := e.tr.begin("cache.stackdist", 0)
		texcache.NewStackDist(64).AccessBatch(tr.Addrs)
		end(work)

		_, end = e.tr.begin("cache.groupsim", 0)
		stats, err := texcache.SimulateConfigsGroupedStream(ctx, tr, cfgs)
		end(work)

		c, cerr := texcache.NewCache(point)
		if err == nil {
			err = cerr
		}
		if err != nil {
			p.Failed++
			o.problem("cache: %v", err)
			continue
		}
		_, end = e.tr.begin("cache.access_batch", 0)
		c.AccessBatch(tr.Addrs)
		end(work)
		// The grouped sweep must agree with the plain kernel on the
		// shared point.
		for i, cfg := range cfgs {
			if cfg == point && stats[i].Misses != c.Stats().Misses {
				o.problem("cache: grouped sweep counts %d misses at %+v, AccessBatch %d", stats[i].Misses, cfg, c.Stats().Misses)
			}
		}
		p.Succeeded++
	}
	for _, m := range []struct{ span, metric string }{
		{"cache.stackdist", "cache.stackdist_ns_per_addr"},
		{"cache.groupsim", "cache.groupsim_ns_per_addr"},
		{"cache.access_batch", "cache.access_batch_ns_per_addr"},
	} {
		d, work, _ := e.tr.sum(m.span)
		o.Metrics.set(m.metric, float64(d)/float64(max(work, 1)), "ns")
	}
	o.Metrics.set("cache.replay_addrs", float64(reg.Sub("replay").Counter("addresses").Value()), "count")
	gs := reg.Sub("groupsim")
	o.Metrics.set("cache.groupsim_passes_saved", float64(gs.Counter("passes_saved").Value()), "count")
	o.Metrics.set("cache.fallback_configs", float64(gs.Counter("fallback_configs").Value()), "count")
}

// engineLayer runs the whole paper batch in-process on a fresh trace
// cache and returns the (now warm) cache for the layers that follow.
// The batch runs with a registry of its own, so the program's counts
// (frames rendered, trace blocks decoded, trace-cache hits and renders)
// are the batch's alone; reg is attached again afterwards.
func engineLayer(ctx context.Context, e *env, o *outcome, reg *texcache.MetricsRegistry) *texcache.TraceCache {
	batchReg := texcache.NewMetricsRegistry()
	texcache.AttachMetrics(batchReg)
	defer texcache.AttachMetrics(reg)
	tc := texcache.NewTraceCache()
	p := o.phase("layers")
	p.Attempted++
	req := texcache.ExperimentRequest{Scale: e.layerScale()}
	if e.tiny {
		req.Experiments = []string{"table2.1", "fig5.7"}
	}
	id, end := e.tr.begin("engine.batch", 0)
	start := time.Now()
	results, err := texcache.Run(ctx, req, texcache.WithTraceProvider(tc))
	if err != nil {
		end(0)
		p.Failed++
		o.problem("engine: %v", err)
		return tc
	}
	var busy time.Duration
	var all []texcache.ExperimentResult
	for r := range results {
		if r.Err != nil {
			o.problem("engine: %s: %v", r.ID, r.Err)
		}
		busy += r.Elapsed
		e.tr.record("engine.experiment."+r.ID, id, time.Now().Add(-r.Elapsed), time.Now(), 0)
		all = append(all, r)
	}
	wall := time.Since(start)
	end(int64(len(all)))
	p.Succeeded++
	o.Metrics.set("engine.busy_frac", float64(busy)/(float64(wall)*float64(runtime.GOMAXPROCS(0))), "ratio")
	tcReg := batchReg.Sub("engine").Sub("trace_cache")
	o.Metrics.set("engine.trace_cache_hits", float64(tcReg.Counter("hits").Value()), "count")
	o.Metrics.set("engine.trace_cache_renders", float64(tcReg.Counter("renders").Value()), "count")
	o.Metrics.set("pipeline.renders", float64(batchReg.Sub("render").Counter("frames").Value()), "count")
	o.Metrics.set("trace.decodes", float64(batchReg.Sub("trace").Timer("decode").Count()), "count")

	// report: re-serialize the batch's recorded results as NDJSON.
	ch := make(chan texcache.ExperimentResult, len(all))
	for _, r := range all {
		ch <- r
	}
	close(ch)
	_, end = e.tr.begin("report.ndjson_encode", 0)
	t0 := time.Now()
	var cw countingWriter
	err = texcache.WriteResultsNDJSON(&cw, ch, nil)
	o.Metrics.set("report.ndjson_encode_s", time.Since(t0).Seconds(), "s")
	end(cw.n)
	if err != nil {
		o.problem("report: %v", err)
	}
	return tc
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// expLayer runs each registered experiment alone over the warm traces.
func expLayer(ctx context.Context, e *env, o *outcome, tc *texcache.TraceCache) {
	p := o.phase("layers")
	for _, id := range texcache.ExperimentIDs() {
		if e.tiny && id != "table2.1" && id != "fig5.7" {
			o.Metrics.set(expMetricName(id), 0, "s")
			continue
		}
		p.Attempted++
		_, end := e.tr.begin("exp."+id, 0)
		t0 := time.Now()
		results, err := texcache.Run(ctx, texcache.ExperimentRequest{Experiments: []string{id}, Scale: e.layerScale(), Workers: 1},
			texcache.WithTraceProvider(tc))
		if err == nil {
			for r := range results {
				if r.Err != nil {
					err = r.Err
				}
			}
		}
		o.Metrics.set(expMetricName(id), time.Since(t0).Seconds(), "s")
		end(0)
		if err != nil {
			p.Failed++
			o.problem("exp %s: %v", id, err)
			continue
		}
		p.Succeeded++
	}
}

// serviceLayer times in-process RunNDJSON per result-cache class, no
// HTTP: each explore-style sweep runs once as a miss and once as a hit.
// The result-cache counts come from texserve's /metrics instead, over
// the traced pass's serve window.
func serviceLayer(ctx context.Context, e *env, o *outcome, tc *texcache.TraceCache) {
	rc := texcache.NewResultCache()
	rng := rand.New(rand.NewSource(e.seed))
	p := o.phase("layers")
	// Warm each scene's sweep trace first, so misses time replay only.
	for _, scene := range serveScenes {
		req := texcache.ExperimentRequest{Scene: scene, Scale: serveScale, Configs: []texcache.RequestCacheConfig{{SizeBytes: 1 << 10, LineBytes: 64}}}
		if e.tiny {
			req.Scale = 16
		}
		texcache.RunNDJSON(ctx, req, io.Discard, nil, texcache.WithTraceProvider(tc))
	}
	var hit, miss []float64
	for i := 0; i < 8; i++ {
		req := missRequest(rng, i, e.tiny)
		var first, second bytes.Buffer
		for _, run := range []struct {
			w    *bytes.Buffer
			into *[]float64
			span string
		}{{&first, &miss, "engine.miss_service"}, {&second, &hit, "engine.hit_service"}} {
			p.Attempted++
			_, end := e.tr.begin(run.span, 0)
			t0 := time.Now()
			err := texcache.RunNDJSON(ctx, req, run.w, nil, texcache.WithTraceProvider(tc), texcache.WithResultCache(rc))
			*run.into = append(*run.into, ms(time.Since(t0)))
			end(int64(run.w.Len()))
			if err != nil {
				p.Failed++
				o.problem("engine service: %v", err)
				continue
			}
			p.Succeeded++
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			o.problem("engine service: result-cache hit differs from the miss that produced it")
		}
	}
	o.Metrics.set("engine.hit_service_ms", median(hit), "ms")
	o.Metrics.set("engine.miss_service_ms", median(miss), "ms")
}

// shardLayer fills a trace store with one coordinated grid pass and
// times each shard alone over it plus the merge.
func shardLayer(ctx context.Context, e *env, o *outcome) {
	g := gridSpec(e.seed, e.tiny)
	fx := gridFixture{path: filepath.Join(e.work, "shard-grid.json"), grid: g}
	if err := writeJSON(fx.path, g); err != nil {
		o.problem("shard: %v", err)
		return
	}
	store := filepath.Join(e.work, "shard-traces")
	res, err := runProc(ctx, e.work, filepath.Join(e.bin, "texsim"),
		"-grid", fx.path, "-coordinate", fmt.Sprint(gridWorkers()), "-trace-dir", store)
	if err != nil {
		o.problem("shard: %v", err)
		return
	}
	fx.refSHA = sha256Hex(res.Stdout)
	gridShardLayer(ctx, e, o, fx, store)
}
