// Package parallel studies the open question the paper's conclusion
// poses: "how to balance the work among multiple fragment generators
// without reducing the spatial locality in each reference stream."
//
// The model is the architecture Section 3 sketches — multiple fragment
// generators sharing one DRAM texture memory, each with its own SRAM
// cache, partitioned in image space. No cache coherence is needed since
// texture data is read-only. The package compares the classic image-
// space partitions: interleaved scanlines (perfect balance, poor
// locality), contiguous strips (good locality, poor balance), and
// interleaved screen tiles (the compromise that later GPUs adopted).
package parallel

import (
	"fmt"

	"texcache/internal/cache"
	"texcache/internal/scenes"
	"texcache/internal/texture"
)

// Partition selects the image-space work distribution.
type Partition int

const (
	// ScanlineInterleave gives generator i every (y mod N == i)-th row.
	ScanlineInterleave Partition = iota
	// StripPartition gives generator i the i-th horizontal band.
	StripPartition
	// TileInterleave deals fixed-size screen tiles round-robin along
	// tile rows.
	TileInterleave
)

// String names the partition scheme.
func (p Partition) String() string {
	switch p {
	case ScanlineInterleave:
		return "scanline-interleave"
	case StripPartition:
		return "strips"
	case TileInterleave:
		return "tile-interleave"
	default:
		return fmt.Sprintf("Partition(%d)", int(p))
	}
}

// owner returns the function mapping a pixel to the generator (0..n-1)
// that owns it under the partition, for a height-pixel screen. tile is
// the tile edge for TileInterleave.
func owner(p Partition, n, height, tile int) func(x, y int) int {
	switch p {
	case ScanlineInterleave:
		return func(x, y int) int { return y % n }
	case StripPartition:
		band := (height + n - 1) / n
		return func(x, y int) int { return y / band }
	case TileInterleave:
		return func(x, y int) int { return (x/tile + y/tile) % n }
	default:
		panic("parallel: unknown partition")
	}
}

// FGResult is one fragment generator's share of a frame.
type FGResult struct {
	FG        int
	Fragments uint64
	Stats     cache.Stats
}

// Result summarizes a parallel rendering of one frame.
type Result struct {
	Partition Partition
	N         int
	PerFG     []FGResult
}

// TotalFragments sums the fragments over all generators.
func (r Result) TotalFragments() uint64 {
	var n uint64
	for _, f := range r.PerFG {
		n += f.Fragments
	}
	return n
}

// TotalMisses sums the cache misses over all generators, the shared
// DRAM's aggregate line-fill traffic.
func (r Result) TotalMisses() uint64 {
	var n uint64
	for _, f := range r.PerFG {
		n += f.Stats.Misses
	}
	return n
}

// LoadImbalance returns max/mean fragments across generators: 1.0 is a
// perfect balance; the frame time of a lock-step parallel machine scales
// with this factor.
func (r Result) LoadImbalance() float64 {
	if len(r.PerFG) == 0 {
		return 0
	}
	var max, sum uint64
	for _, f := range r.PerFG {
		sum += f.Fragments
		if f.Fragments > max {
			max = f.Fragments
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(r.PerFG))
	return float64(max) / mean
}

// AggregateMissRate returns total misses over total accesses.
func (r Result) AggregateMissRate() float64 {
	var acc, miss uint64
	for _, f := range r.PerFG {
		acc += f.Stats.Accesses
		miss += f.Stats.Misses
	}
	if acc == 0 {
		return 0
	}
	return float64(miss) / float64(acc)
}

// Run renders the scene once with a private cache per fragment
// generator, routing each fragment's texel addresses to the cache of the
// generator that owns its pixel, and collects the per-generator
// statistics. Each cache sees exactly the stream a render masked to its
// generator's image-space share would give it, in the same order. tile
// is the tile edge for TileInterleave (ignored otherwise).
func Run(s *scenes.Scene, p Partition, n, tile int,
	layout texture.LayoutSpec, cacheCfg cache.Config) (Result, error) {

	if n < 1 {
		return Result{}, fmt.Errorf("parallel: need at least one generator, got %d", n)
	}
	own := owner(p, n, s.Height, tile)
	rt := &router{caches: make([]*cache.Cache, n), frags: make([]uint64, n)}
	for fg := range rt.caches {
		rt.caches[fg] = cache.New(cacheCfg)
	}
	r, err := s.Render(scenes.RenderOptions{
		Layout:    layout,
		Traversal: s.DefaultTraversal(),
		Sink:      rt,
		// The mask sees every fragment before it is shaded; it claims
		// them all and only notes whose texel addresses come next.
		FragmentMask: func(x, y int) bool {
			rt.cur = own(x, y)
			rt.fresh = true
			return true
		},
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{Partition: p, N: n, PerFG: make([]FGResult, n)}
	var total uint64
	for fg, c := range rt.caches {
		res.PerFG[fg] = FGResult{FG: fg, Fragments: rt.frags[fg], Stats: c.Stats()}
		total += rt.frags[fg]
	}
	if total != r.Stats.FragmentsTextured {
		return Result{}, fmt.Errorf("parallel: routed %d textured fragments, the frame has %d",
			total, r.Stats.FragmentsTextured)
	}
	return res, nil
}

// router is the frame's texel sink: it forwards each address to the
// cache of the generator that owns the fragment being textured. Every
// textured fragment fetches at least one texel, so the first address
// after a fragment's mask call counts it as one of its owner's textured
// fragments.
type router struct {
	caches []*cache.Cache
	frags  []uint64
	cur    int  // owner of the current fragment
	fresh  bool // the current fragment has fetched no texel yet
}

func (rt *router) Access(addr uint64) {
	if rt.fresh {
		rt.frags[rt.cur]++
		rt.fresh = false
	}
	rt.caches[rt.cur].Access(addr)
}
