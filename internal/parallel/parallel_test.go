package parallel

import (
	"testing"

	"texcache/internal/cache"
	"texcache/internal/scenes"
	"texcache/internal/texture"
)

func TestMaskPartitionsAreDisjointAndComplete(t *testing.T) {
	const w, h, n, tile = 64, 48, 4, 8
	for _, p := range []Partition{ScanlineInterleave, StripPartition, TileInterleave} {
		masks := make([]func(x, y int) bool, n)
		for fg := 0; fg < n; fg++ {
			masks[fg] = mask(p, n, fg, h, tile)
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				owners := 0
				for fg := 0; fg < n; fg++ {
					if masks[fg](x, y) {
						owners++
					}
				}
				if owners != 1 {
					t.Fatalf("%v: pixel (%d,%d) owned by %d generators", p, x, y, owners)
				}
			}
		}
	}
}

func TestMaskUnknownPartitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	owner(Partition(99), 2, 64, 8)
}

func TestPartitionString(t *testing.T) {
	if ScanlineInterleave.String() != "scanline-interleave" ||
		StripPartition.String() != "strips" ||
		TileInterleave.String() != "tile-interleave" {
		t.Error("partition names wrong")
	}
}

func runStudy(t *testing.T, p Partition, n int) Result {
	t.Helper()
	s, err := scenes.ByNameChecked("goblet", 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, p, n, 8,
		texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8},
		cache.Config{SizeBytes: 4 << 10, LineBytes: 128, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunFragmentsConserved(t *testing.T) {
	// The union of the generators' fragments equals a single-generator
	// render: partitions neither drop nor duplicate work.
	single := runStudy(t, StripPartition, 1)
	if single.TotalFragments() == 0 {
		t.Fatal("single generator rendered no fragments")
	}
	for _, p := range []Partition{ScanlineInterleave, StripPartition, TileInterleave} {
		multi := runStudy(t, p, 4)
		if multi.TotalFragments() != single.TotalFragments() {
			t.Errorf("%v: %d fragments across 4 FGs, single FG has %d",
				p, multi.TotalFragments(), single.TotalFragments())
		}
	}
}

func TestRunLoadBalanceOrdering(t *testing.T) {
	// Scanline interleaving balances almost perfectly; strips are worse
	// on a scene that does not fill the screen uniformly.
	scan := runStudy(t, ScanlineInterleave, 4)
	strips := runStudy(t, StripPartition, 4)
	if scan.LoadImbalance() > strips.LoadImbalance() {
		t.Errorf("scanline imbalance %.3f should not exceed strips %.3f",
			scan.LoadImbalance(), strips.LoadImbalance())
	}
	if scan.LoadImbalance() < 1 || strips.LoadImbalance() < 1 {
		t.Error("imbalance below 1 is impossible")
	}
}

func TestRunAggregateTrafficGrowsWithInterleaving(t *testing.T) {
	// Fine interleaving splits spatially adjacent fragments across
	// caches, so the aggregate DRAM traffic exceeds the strip partition's.
	scan := runStudy(t, ScanlineInterleave, 4)
	strips := runStudy(t, StripPartition, 4)
	if scan.TotalMisses() < strips.TotalMisses() {
		t.Errorf("scanline misses %d unexpectedly below strips %d",
			scan.TotalMisses(), strips.TotalMisses())
	}
}

func TestRunRejectsZeroGenerators(t *testing.T) {
	s, err := scenes.ByNameChecked("goblet", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, StripPartition, 0, 8,
		texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8},
		cache.Config{SizeBytes: 4 << 10, LineBytes: 128, Ways: 2}); err == nil {
		t.Error("zero generators accepted")
	}
}

func TestResultHelpers(t *testing.T) {
	var empty Result
	if empty.LoadImbalance() != 0 || empty.AggregateMissRate() != 0 {
		t.Error("empty result helpers should be 0")
	}
	r := Result{PerFG: []FGResult{
		{Fragments: 10, Stats: cache.Stats{Accesses: 80, Misses: 8}},
		{Fragments: 30, Stats: cache.Stats{Accesses: 240, Misses: 8}},
	}}
	if r.TotalFragments() != 40 || r.TotalMisses() != 16 {
		t.Error("totals wrong")
	}
	if got := r.LoadImbalance(); got != 1.5 {
		t.Errorf("imbalance = %v, want 1.5", got)
	}
	if got := r.AggregateMissRate(); got != 0.05 {
		t.Errorf("aggregate miss rate = %v, want 0.05", got)
	}
}
