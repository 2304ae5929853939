package texcache_test

import (
	"fmt"

	"texcache"
)

// Example renders one frame of the Goblet benchmark, replays its texel
// address trace through the paper's 32KB 2-way cache, and derives the
// memory bandwidth at 50M textured fragments per second.
func Example() {
	scene, err := texcache.SceneByNameChecked("goblet", 8) // 1/8 resolution
	if err != nil {
		panic(err)
	}
	trace, _, err := scene.Trace(
		texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8},
		scene.DefaultTraversal())
	if err != nil {
		panic(err)
	}

	c, err := texcache.NewClassifyingCache(texcache.CacheConfig{
		SizeBytes: 32 << 10, LineBytes: 128, Ways: 2})
	if err != nil {
		panic(err)
	}
	trace.Replay(c.Sink())

	s := c.Stats()
	model := texcache.DefaultPerfModel()
	fmt.Printf("accesses: %d\n", s.Accesses)
	fmt.Printf("all misses cold: %v\n", s.Misses == s.Cold)
	fmt.Printf("uncached bandwidth: %.1f GB/s\n",
		model.UncachedBandwidthBytesPerSecond()/1e9)
	// Output:
	// accesses: 29692
	// all misses cold: true
	// uncached bandwidth: 1.6 GB/s
}

// ExampleNewStackDist shows the one-pass working-set profiler: one replay
// yields the fully-associative miss rate at every cache size.
func ExampleNewStackDist() {
	sd := texcache.NewStackDist(32)
	// A cyclic sweep over 2KB of addresses.
	for i := 0; i < 10000; i++ {
		sd.Access(uint64(i*4) % 2048)
	}
	// Each 32B line is touched by 8 consecutive 4B accesses (7 hits),
	// then revisited a full 64-line sweep later: a 1KB cache (32 lines)
	// misses once per line visit, a 2KB cache (64 lines) holds the whole
	// sweep and only cold-misses.
	fmt.Printf("1KB cache misses: %d\n", sd.MissesAt(1<<10/32))
	fmt.Printf("2KB cache misses: %d (cold only: %v)\n",
		sd.MissesAt(2<<10/32), sd.MissesAt(2<<10/32) == sd.ColdMisses())
	// Output:
	// 1KB cache misses: 1250
	// 2KB cache misses: 64 (cold only: true)
}
