package texcache_test

// Bench-check speedup gates for the fast paths this engine leans on:
// tile-parallel trace generation and batched trace replay run best-of-3
// against a warmed baseline, like TestGroupedSweepSpeedup; the
// stack-distance profiler is held to a cost ratio against the cache
// kernel.

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"texcache"
)

// bestOf3 times three runs of f and returns the fastest, rejecting
// scheduler noise the way the grouped-sweep gate does.
func bestOf3(f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// TestTraceGenParallelSpeedup is the bench-check gate for the tile
// pass: generating the four benchmark traces with a full-width worker
// pool must beat the serial scan by at least 1.5x. The margin comes
// from rasterizing tiles concurrently while the caller drains the
// rank-ordered merge, so — unlike the grouped-sweep gate — it needs
// real cores and skips on a single-CPU host.
func TestTraceGenParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	workers := runtime.NumCPU()
	if workers < 2 {
		t.Skip("parallel speedup needs more than one CPU")
	}

	layout := texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8}
	var scenes []*texcache.Scene
	for _, name := range []string{"flight", "guitar", "goblet", "town"} {
		scenes = append(scenes, mustScene(t, name, 4))
	}
	gen := func(workers int) func() {
		return func() {
			for _, s := range scenes {
				if _, _, err := s.TraceParallel(layout, s.DefaultTraversal(), workers); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Warm both paths (scene meshes, tile-stream pools) before timing.
	gen(1)()
	gen(workers)()

	serial := bestOf3(gen(1))
	parallel := bestOf3(gen(workers))

	speedup := float64(serial) / float64(parallel)
	t.Logf("serial %v, %d workers %v: %.2fx", serial, workers, parallel, speedup)
	if speedup < 1.5 {
		t.Errorf("parallel trace generation speedup %.2fx, want >= 1.5x (serial %v, parallel %v)",
			speedup, serial, parallel)
	}
}

// TestBatchReplaySpeedup is the bench-check gate for the batch replay
// kernel: feeding the Goblet trace to a cache in Replay-sized blocks
// through AccessBatch must beat the per-address Sink loop by at least
// 1.3x. The margin is per-access overhead — one interface call and one
// statistics update per block instead of per address — so it holds on a
// single core.
func TestBatchReplaySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	s := mustScene(t, "goblet", 4)
	tr, _, err := s.Trace(texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8},
		s.DefaultTraversal())
	if err != nil {
		t.Fatal(err)
	}
	cfg := texcache.CacheConfig{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2}
	newCache := func() *texcache.Cache {
		c, err := texcache.NewCache(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	const block = 1 << 14 // Replay's chunk size
	perAddress := func() {
		var sink texcache.Sink = newCache().Sink()
		for _, a := range tr.Addrs {
			sink.Access(a)
		}
	}
	batched := func() {
		c := newCache()
		for lo := 0; lo < len(tr.Addrs); lo += block {
			c.AccessBatch(tr.Addrs[lo:min(lo+block, len(tr.Addrs))])
		}
	}
	perAddress() // warm-up: page the trace in
	batched()

	scalar := bestOf3(perAddress)
	batch := bestOf3(batched)

	speedup := float64(scalar) / float64(batch)
	t.Logf("per-address %v, batched %v: %.2fx over %d addresses",
		scalar, batch, speedup, tr.Len())
	if speedup < 1.3 {
		t.Errorf("batch replay speedup %.2fx, want >= 1.3x (per-address %v, batched %v)",
			speedup, scalar, batch)
	}
}

// TestStackDistBatchRatio is the bench-check gate for the stack-distance
// profiler: fed the Goblet benchmark trace in Replay-sized blocks, its
// time per address must stay within 6x of the set-associative cache
// kernel's on the same trace. Both kernels run in one process with
// their repetitions interleaved and are compared by median, so host
// speed drift cancels out of the ratio.
func TestStackDistBatchRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	s := mustScene(t, "goblet", benchScale())
	tr, _, err := s.Trace(texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8},
		s.DefaultTraversal())
	if err != nil {
		t.Fatal(err)
	}
	// Each repetition cycles the trace to about 1M addresses, as the
	// benchmarks do, so a timing spans milliseconds, not microseconds.
	const block = 1 << 14 // Replay's chunk size
	passes := max(1, (1<<20)/tr.Len())
	feed := func(batch func([]uint64)) time.Duration {
		start := time.Now()
		for range passes {
			for lo := 0; lo < len(tr.Addrs); lo += block {
				batch(tr.Addrs[lo:min(lo+block, len(tr.Addrs))])
			}
		}
		return time.Since(start)
	}
	stackDist := func() time.Duration {
		return feed(texcache.NewStackDist(128).AccessBatch)
	}
	cacheBatch := func() time.Duration {
		c, err := texcache.NewCache(texcache.CacheConfig{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2})
		if err != nil {
			t.Fatal(err)
		}
		return feed(func(addrs []uint64) { c.AccessBatch(addrs) })
	}
	stackDist() // warm-up: page the trace in
	cacheBatch()

	const reps = 9
	var sd, cb []time.Duration
	for i := 0; i < reps; i++ {
		sd = append(sd, stackDist())
		cb = append(cb, cacheBatch())
	}
	slices.Sort(sd)
	slices.Sort(cb)
	n := float64(passes * tr.Len())
	sdNs := float64(sd[reps/2].Nanoseconds()) / n
	cbNs := float64(cb[reps/2].Nanoseconds()) / n
	ratio := sdNs / cbNs
	t.Logf("StackDist batch %.1f ns/addr, Cache batch %.1f ns/addr: %.2fx over %d passes of %d addresses",
		sdNs, cbNs, ratio, passes, tr.Len())
	if ratio > 6 {
		t.Errorf("StackDist batch costs %.2fx the cache kernel per address, want <= 6x (%.1f vs %.1f ns/addr)",
			ratio, sdNs, cbNs)
	}
}
