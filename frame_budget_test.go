package texcache_test

import (
	"context"
	"testing"

	"texcache"
)

// The paper batch's frame budget. Every result is a function of a texel
// address stream, so a batch should render each distinct stream once,
// through the shared trace cache, and a warm batch should render only
// the frames no trace can stand in for. Frame counts are deterministic,
// so a new private re-render fails here instead of drifting a timing
// benchmark. The private frames a batch still draws:
//
//   - characterize (table2.1, table4.1, locality, runlength): 12 frames
//     with the locality collector and op counters attached;
//   - parallel: one frame per (partition, generator count) point, 10;
//   - banks and interframe: 4 each.
const (
	budgetColdFrames  = 98
	budgetTraceRender = 68
	budgetWarmFrames  = 30
)

func TestPaperFrameBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("two scale-4 batches of every experiment; skipped in short mode")
	}
	if raceEnabled {
		t.Skip("run without -race (make test's golden leg); frame counts gain nothing from the race detector")
	}
	// The frame counter lives in the process-wide registry; no other
	// test in this package attaches one, and none runs in parallel.
	reg := texcache.NewMetricsRegistry()
	texcache.AttachMetrics(reg)
	defer texcache.DetachMetrics()
	frames := reg.Sub("render").Counter("frames")

	tc := texcache.NewTraceCache()
	batch := func(name string) uint64 {
		t.Helper()
		before := frames.Value()
		results, err := texcache.Run(context.Background(),
			texcache.ExperimentRequest{Scale: goldenScale}, texcache.WithTraceProvider(tc))
		if err != nil {
			t.Fatal(err)
		}
		for r := range results {
			if r.Err != nil {
				t.Fatalf("%s batch: %s: %v", name, r.ID, r.Err)
			}
		}
		return frames.Value() - before
	}

	if cold := batch("cold"); cold != budgetColdFrames {
		t.Errorf("cold batch drew %d frames, budget is %d", cold, budgetColdFrames)
	}
	if r := tc.Renders(); r != budgetTraceRender {
		t.Errorf("cold batch made %d trace-cache renders, budget is %d", r, budgetTraceRender)
	}
	if warm := batch("warm"); warm != budgetWarmFrames {
		t.Errorf("warm batch drew %d frames, budget is %d", warm, budgetWarmFrames)
	}
	if r := tc.Renders(); r != budgetTraceRender {
		t.Errorf("warm batch rendered %d new traces, want none", r-budgetTraceRender)
	}
}
