package engine

import (
	"container/list"
	"context"
	"fmt"
	"runtime"
	"sync"

	"texcache/internal/cache"
	"texcache/internal/exp"
	"texcache/internal/obs"
	"texcache/internal/scenes"
	"texcache/internal/trace"
)

// traceCacheKey is a TraceKey plus the run scale: the full identity of a
// rendered address stream.
type traceCacheKey struct {
	key   exp.TraceKey
	scale int
}

// traceEntry is one slot of the trace cache. ready is closed once
// str/err are final; waiters block on it (or their context) instead of
// holding the cache lock through a render. elem is the entry's LRU node,
// nil while the production is in flight (in-flight entries are never
// evicted); size is the stream's resident footprint.
type traceEntry struct {
	key   traceCacheKey
	ready chan struct{}
	str   cache.AddrStream
	err   error
	elem  *list.Element
	size  int64
}

// Default budgets for the memory tier: enough for any one batch's
// working set, small enough that a long-lived texserve mixing many
// (scene, scale, layout, traversal) keys stays bounded. Evicted traces
// re-render (or re-load from the store) bit-identically on the next
// request, so eviction is never a correctness event.
const (
	defaultTraceMaxEntries = 512
	defaultTraceMaxBytes   = 512 << 20
)

// TraceCache memoizes rendered traces keyed by (scene, layout, traversal,
// scale) with single-flight semantics: when several experiments request
// the same stream concurrently, exactly one goroutine produces it and the
// rest wait for that result. It implements exp.TraceProvider, so
// installing one as Config.Traces makes every experiment in a batch share
// renders.
//
// Entries are held in the compact delta encoding (internal/trace), so a
// batch's working set is several times smaller than materialized traces;
// replay consumes the encoded blocks directly. With a Store attached the
// cache gains a persistent tier: a memory miss first tries the store, and
// freshly rendered traces are written back, so a later run with the same
// store skips rendering entirely.
//
// Failed renders are not cached: the entry is removed so a later request
// (perhaps with a different deadline) retries.
type TraceCache struct {
	// RenderWorkers is the tile-parallel rasterization worker count each
	// render uses; zero or negative means GOMAXPROCS, one forces the
	// serial reference path. Traces are bit-identical at any setting.
	// Set before the first SceneTrace call.
	RenderWorkers int

	// Store, when non-nil, is the persistent tier consulted between a
	// memory miss and a render, and written back after each render. Store
	// failures are never fatal: a bad load is a miss, a failed save
	// leaves the in-memory entry intact. Set before the first SceneTrace
	// call.
	Store *trace.Store

	// MaxEntries and MaxBytes bound the memory tier; above either budget
	// the least-recently-used completed entry is evicted. Zero means the
	// default budget (512 entries, 512MB), negative means unlimited. Set
	// before the first SceneTrace call.
	MaxEntries int
	MaxBytes   int64

	mu        sync.Mutex
	entries   map[traceCacheKey]*traceEntry
	lru       *list.List // completed entries, front = most recently used
	bytes     int64      // sum of completed entry sizes
	renders   int        // number of actual renders performed, for tests/metrics
	storeHits int        // number of loads served by the persistent tier
	evictions int        // completed entries dropped to stay within budget
}

// NewTraceCache returns an empty trace cache with default budgets.
func NewTraceCache() *TraceCache {
	return &TraceCache{entries: map[traceCacheKey]*traceEntry{}, lru: list.New()}
}

// Renders reports how many renders the cache has actually performed —
// the denominator of its hit rate. Store hits don't count: a warm
// persistent tier serves a whole batch with zero renders.
func (tc *TraceCache) Renders() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.renders
}

// StoreHits reports how many trace requests the persistent tier served
// without a render — the warm-store number a sharded re-run's "rendered
// nothing" claim rests on.
func (tc *TraceCache) StoreHits() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.storeHits
}

// Evictions reports how many completed entries the memory tier has
// dropped to stay within its budget.
func (tc *TraceCache) Evictions() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.evictions
}

// Len reports the number of completed entries resident in memory.
func (tc *TraceCache) Len() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.lru == nil {
		return 0
	}
	return tc.lru.Len()
}

// SceneTrace returns the address stream for key at the given scale,
// producing it (store load, else render) on the calling goroutine if no
// other request got there first. Waiters respect ctx: a cancelled waiter
// returns early while the production (owned by another caller) continues
// for whoever still wants it.
func (tc *TraceCache) SceneTrace(ctx context.Context, key exp.TraceKey, scale int) (cache.AddrStream, error) {
	if scale < 1 {
		scale = 1
	}
	ck := traceCacheKey{key: key, scale: scale}

	reg := obs.Default().Sub("engine").Sub("trace_cache")
	tc.mu.Lock()
	if tc.lru == nil {
		tc.lru = list.New()
	}
	if e, ok := tc.entries[ck]; ok {
		if e.elem != nil {
			tc.lru.MoveToFront(e.elem)
		}
		tc.mu.Unlock()
		// A hit is any request served by an existing entry, including
		// dedupe hits that wait on an in-flight production.
		reg.Counter("hits").Inc()
		select {
		case <-e.ready:
			return e.str, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &traceEntry{key: ck, ready: make(chan struct{})}
	tc.entries[ck] = e
	tc.mu.Unlock()

	e.str, e.err = tc.produce(ctx, ck)
	if e.err != nil {
		// Drop failed entries so the next request retries.
		tc.mu.Lock()
		delete(tc.entries, ck)
		tc.mu.Unlock()
	} else {
		tc.install(e, reg)
	}
	close(e.ready)
	return e.str, e.err
}

// install publishes a completed entry into the LRU and evicts over
// budget. Evicted entries simply leave the map: a stream already handed
// to replayers stays valid (it is immutable), and the next request for
// its key re-produces it bit-identically.
func (tc *TraceCache) install(e *traceEntry, reg *obs.Registry) {
	e.size = streamSize(e.str)
	maxEntries, maxBytes := tc.MaxEntries, tc.MaxBytes
	if maxEntries == 0 {
		maxEntries = defaultTraceMaxEntries
	}
	if maxBytes == 0 {
		maxBytes = defaultTraceMaxBytes
	}
	tc.mu.Lock()
	e.elem = tc.lru.PushFront(e)
	tc.bytes += e.size
	evicted := 0
	for tc.lru.Len() > 1 &&
		((maxEntries > 0 && tc.lru.Len() > maxEntries) ||
			(maxBytes > 0 && tc.bytes > maxBytes)) {
		back := tc.lru.Back()
		v := back.Value.(*traceEntry)
		tc.lru.Remove(back)
		delete(tc.entries, v.key)
		tc.bytes -= v.size
		tc.evictions++
		evicted++
	}
	tc.mu.Unlock()
	for i := 0; i < evicted; i++ {
		reg.Counter("evictions").Inc()
	}
}

// streamSize estimates a stream's resident footprint: the compact
// encoding reports its exact byte size, anything else is approximated
// by its address count.
func streamSize(str cache.AddrStream) int64 {
	if sized, ok := str.(interface{ SizeBytes() int }); ok {
		return int64(sized.SizeBytes())
	}
	if str == nil {
		return 0
	}
	return int64(str.Len())
}

// produce fills one cache slot: persistent tier first, then a render
// compacted and written back.
func (tc *TraceCache) produce(ctx context.Context, ck traceCacheKey) (cache.AddrStream, error) {
	reg := obs.Default().Sub("engine").Sub("trace_cache")
	if tc.Store != nil {
		if c, ok := tc.Store.Load(storeKey(ck)); ok {
			tc.mu.Lock()
			tc.storeHits++
			tc.mu.Unlock()
			reg.Counter("store_hits").Inc()
			return c, nil
		}
	}
	tc.mu.Lock()
	tc.renders++
	tc.mu.Unlock()
	reg.Counter("renders").Inc()

	tr, err := renderTrace(ctx, ck, tc.effectiveRenderWorkers())
	if err != nil {
		return nil, err
	}
	c := trace.CompactFromTrace(tr)
	if tc.Store != nil {
		// Best effort: an unwritable store degrades to cold runs, not
		// failures.
		_ = tc.Store.Save(storeKey(ck), c)
	}
	return c, nil
}

// storeKey names a trace cache slot in the persistent store.
func storeKey(ck traceCacheKey) trace.Key {
	return trace.RenderKey(ck.key.Scene, ck.scale, ck.key.Layout, ck.key.Traversal)
}

// effectiveRenderWorkers resolves the configured worker count.
func (tc *TraceCache) effectiveRenderWorkers() int {
	if tc.RenderWorkers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return tc.RenderWorkers
}

// renderTrace performs the actual scene render for one cache slot, on
// the tile-parallel path when workers allows it. The trace is
// bit-identical either way.
func renderTrace(ctx context.Context, ck traceCacheKey, workers int) (*cache.Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := scenes.ByNameChecked(ck.key.Scene, ck.scale)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	tr, _, err := s.TraceParallel(ck.key.Layout, ck.key.Traversal, workers)
	return tr, err
}
