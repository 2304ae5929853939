package parallel

import (
	"fmt"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/geom"
	"texcache/internal/scenes"
	"texcache/internal/texture"
	"texcache/internal/vecmath"
)

// mask returns the pixel-ownership predicate of generator fg out of n,
// for a height-pixel screen: the FragmentMask of the reference's
// per-generator renders. tile is the tile edge for TileInterleave.
func mask(p Partition, n, fg, height, tile int) func(x, y int) bool {
	own := owner(p, n, height, tile)
	return func(x, y int) bool { return own(x, y) == fg }
}

// maskedRunReference is the n-render definition of a parallel study:
// one frame per generator, masked to the generator's image-space share,
// each feeding its own cache. Run must match it generator for generator.
func maskedRunReference(s *scenes.Scene, p Partition, n, tile int,
	layout texture.LayoutSpec, cacheCfg cache.Config) (Result, error) {

	res := Result{Partition: p, N: n, PerFG: make([]FGResult, n)}
	for fg := 0; fg < n; fg++ {
		c := cache.New(cacheCfg)
		r, err := s.Render(scenes.RenderOptions{
			Layout:       layout,
			Traversal:    s.DefaultTraversal(),
			Sink:         c.Sink(),
			FragmentMask: mask(p, n, fg, s.Height, tile),
		})
		if err != nil {
			return Result{}, err
		}
		res.PerFG[fg] = FGResult{FG: fg, Fragments: r.Stats.FragmentsTextured, Stats: c.Stats()}
	}
	return res, nil
}

// withUntextured returns a copy of s whose draw list interleaves an
// untextured copy of its first mesh, shifted so it overlaps textured
// geometry: fragments that fetch no texel must not be counted.
func withUntextured(t *testing.T, s *scenes.Scene) *scenes.Scene {
	t.Helper()
	if len(s.Draws) == 0 {
		t.Fatal("scene has no draws")
	}
	first := s.Draws[0]
	plain := &geom.Mesh{Tris: make([]geom.Triangle, len(first.Mesh.Tris))}
	for i, tri := range first.Mesh.Tris {
		tri.TexID = -1
		plain.Tris[i] = tri
	}
	shifted := vecmath.Translate(vecmath.Vec3{X: 0.05, Y: 0.05, Z: 0}).Mul(first.Model)
	out := *s
	out.Draws = append([]scenes.Draw{first, {Mesh: plain, Model: shifted}}, s.Draws[1:]...)
	return &out
}

func TestRunMatchesMaskedRenders(t *testing.T) {
	town, err := scenes.ByNameChecked("town", 8)
	if err != nil {
		t.Fatal(err)
	}
	goblet, err := scenes.ByNameChecked("goblet", 8)
	if err != nil {
		t.Fatal(err)
	}
	mixed := withUntextured(t, goblet)
	layout := texture.LayoutSpec{Kind: texture.PaddedBlockedKind, BlockW: 8, PadBlocks: 4}
	cfg := cache.Config{SizeBytes: 4 << 10, LineBytes: 128, Ways: 2}

	// The untextured copy must actually reach the screen, or the scene
	// would not test what it is for.
	r, err := mixed.Render(scenes.RenderOptions{Layout: layout, Traversal: mixed.DefaultTraversal()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.FragmentsShaded <= r.Stats.FragmentsTextured {
		t.Fatalf("mixed scene shades %d fragments, %d textured: no untextured fragment",
			r.Stats.FragmentsShaded, r.Stats.FragmentsTextured)
	}

	for _, sc := range []struct {
		name string
		s    *scenes.Scene
	}{{"town", town}, {"goblet+untextured", mixed}} {
		for _, p := range []Partition{ScanlineInterleave, StripPartition, TileInterleave} {
			for _, n := range []int{1, 2, 3, 4, 8} {
				t.Run(fmt.Sprintf("%s/%v/%d", sc.name, p, n), func(t *testing.T) {
					got, err := Run(sc.s, p, n, 8, layout, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := maskedRunReference(sc.s, p, n, 8, layout, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got.Partition != p || got.N != n || len(got.PerFG) != n {
						t.Fatalf("result header = %v/%d/%d generators", got.Partition, got.N, len(got.PerFG))
					}
					for fg := range want.PerFG {
						if got.PerFG[fg] != want.PerFG[fg] {
							t.Errorf("generator %d: got %+v, masked renders give %+v",
								fg, got.PerFG[fg], want.PerFG[fg])
						}
					}
				})
			}
		}
	}
}
