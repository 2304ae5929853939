package texcache_test

// End-to-end gates on the cycle-level architecture model: the Igehy
// latency-tolerance claim on all four benchmark scenes, and bitwise
// determinism of architecture requests across worker counts.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"texcache"
	"texcache/internal/arch"
)

// archTimeline renders one scene at scale 8 and captures its miss
// timeline under the paper's 32KB 2-way 128B cache.
func archTimeline(t *testing.T, scene string) *arch.Timeline {
	t.Helper()
	s := mustScene(t, scene, 8)
	tr, _, err := s.Trace(texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8},
		s.DefaultTraversal())
	if err != nil {
		t.Fatal(err)
	}
	tl, err := arch.NewTimeline(
		texcache.CacheConfig{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2}, tr)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// TestArchLatencyTolerance is the acceptance gate on the Igehy et al.
// 1998 claim, and part of `make bench-check`: at 100 cycles of memory
// latency the blocking cache must cost at least 1.5x the prefetching
// pipeline on every benchmark scene, while the prefetching pipeline
// stays within 10% of its own zero-latency bound. The margins are
// simulated cycles, not wall-clock, so the gate is exact and
// deterministic.
func TestArchLatencyTolerance(t *testing.T) {
	for _, scene := range texcache.SceneNames() {
		t.Run(scene, func(t *testing.T) {
			tl := archTimeline(t, scene)

			at := func(p arch.Pipeline, lat int) arch.Result {
				cfg := arch.Default(tl.CacheConfig(), p)
				cfg.FillLatency = lat
				res, err := tl.Simulate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			blocking := at(arch.Blocking, 100)
			prefetch := at(arch.Prefetch, 100)
			bound := at(arch.Prefetch, 0)

			if float64(blocking.TotalCyc) < 1.5*float64(prefetch.TotalCyc) {
				t.Errorf("blocking %d cycles vs prefetch %d: want >= 1.5x",
					blocking.TotalCyc, prefetch.TotalCyc)
			}
			if float64(prefetch.TotalCyc) > 1.1*float64(bound.TotalCyc) {
				t.Errorf("prefetch at 100-cycle latency = %d cycles, zero-latency bound %d: want within 10%%",
					prefetch.TotalCyc, bound.TotalCyc)
			}
			// Blocking pays every miss in full: its stall time must grow
			// linearly with latency.
			b200 := at(arch.Blocking, 200)
			if b200.TotalCyc <= blocking.TotalCyc {
				t.Errorf("blocking did not degrade with latency: %d at 100, %d at 200",
					blocking.TotalCyc, b200.TotalCyc)
			}
		})
	}
}

// archRequestNDJSON runs one architecture-kind request through the
// facade and returns the serialized NDJSON stream.
func archRequestNDJSON(t *testing.T, workers, renderWorkers int) []byte {
	t.Helper()
	var req texcache.ExperimentRequest
	body := `{"scene":"goblet","scale":8,"architecture":{"pipeline":"both","fill_latency":100}}`
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	req.Workers = workers
	req.RenderWorkers = renderWorkers
	results, err := texcache.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := texcache.WriteResultsNDJSON(&buf, results, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestArchRequestDeterminism pins the wire contract: the NDJSON bytes
// of an architecture request are identical at any worker or
// render-worker count (the cycle model is a pure function of the trace,
// and the trace is bit-identical at any render parallelism).
func TestArchRequestDeterminism(t *testing.T) {
	base := archRequestNDJSON(t, 1, 1)
	if len(base) == 0 {
		t.Fatal("empty NDJSON stream")
	}
	for _, wc := range []struct{ workers, renderWorkers int }{
		{1, 1}, {4, 0}, {2, 4},
	} {
		got := archRequestNDJSON(t, wc.workers, wc.renderWorkers)
		if !bytes.Equal(base, got) {
			t.Errorf("workers=%d render-workers=%d: NDJSON differs from serial run",
				wc.workers, wc.renderWorkers)
		}
	}
}
