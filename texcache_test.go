package texcache_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"texcache"
	"texcache/internal/scenes"
	"texcache/internal/texture"
)

// mustScene builds a benchmark scene through the checked lookup, failing
// the test on unknown names.
func mustScene(tb testing.TB, name string, scale int) *scenes.Scene {
	tb.Helper()
	s, err := texcache.SceneByNameChecked(name, scale)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestPublicAPIRenderAndSimulate drives the full public surface: build a
// texture, render geometry, trace the accesses, replay through caches.
func TestPublicAPIRenderAndSimulate(t *testing.T) {
	arena := texcache.NewArena()
	tex, err := texcache.NewTexture(0, texcache.Brick(64, 64),
		texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 4}, arena)
	if err != nil {
		t.Fatal(err)
	}

	r := texcache.NewRenderer(64, 64)
	r.Textures = []*texcache.TextureObject{tex}
	trace := texcache.NewTrace(0)
	r.Sink = trace

	mesh := &texcache.Mesh{}
	white := texcache.Vec3{X: 1, Y: 1, Z: 1}
	v := func(x, y, u, vv float64) texcache.Vertex {
		return texcache.Vertex{Pos: texcache.Vec3{X: x, Y: y},
			Normal: texcache.Vec3{Z: 1}, UV: texcache.Vec2{X: u, Y: vv}, Color: white}
	}
	mesh.AddQuad(v(-1, -1, 0, 1), v(1, -1, 1, 1), v(1, 1, 1, 0), v(-1, 1, 0, 0), 0)

	cam := texcache.LookAtCamera(texcache.Vec3{Z: 2}, texcache.Vec3{}, texcache.Vec3{Y: 1},
		math.Pi/2, 1, 0.1, 10)
	r.DrawMesh(mesh, texcache.Identity(), cam)

	if r.Stats.FragmentsTextured == 0 || trace.Len() == 0 {
		t.Fatal("nothing rendered through the public API")
	}

	c, err := texcache.NewClassifyingCache(texcache.CacheConfig{
		SizeBytes: 4 << 10, LineBytes: 64, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	trace.Replay(c.Sink())
	s := c.Stats()
	if s.Accesses != uint64(trace.Len()) {
		t.Errorf("cache saw %d accesses, trace has %d", s.Accesses, trace.Len())
	}
	if s.Cold+s.Capacity+s.Conflict != s.Misses {
		t.Errorf("3C partition broken: %+v", s)
	}

	sd := texcache.NewStackDist(64)
	trace.Replay(sd)
	if sd.Accesses() != uint64(trace.Len()) {
		t.Error("stack distance profiler missed accesses")
	}
}

func TestSceneFacade(t *testing.T) {
	names := texcache.SceneNames()
	if len(names) != 4 {
		t.Fatalf("scene names = %v", names)
	}
	s := mustScene(t, "goblet", 8)
	tr, r, err := s.Trace(texcache.LayoutSpec{Kind: texture.NonBlockedKind}, s.DefaultTraversal())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 || r.Stats.FragmentsTextured == 0 {
		t.Error("scene trace empty")
	}
	if _, err := texcache.SceneByNameChecked("nope", 1); err == nil {
		t.Error("unknown scene should error")
	}
}

func TestRunFacade(t *testing.T) {
	ids := texcache.ExperimentIDs()
	if len(ids) < 10 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	results, err := texcache.Run(context.Background(), texcache.ExperimentRequest{
		Experiments: []string{"table4.1"}, Scale: 8, Scenes: []string{"goblet"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		out.WriteString(r.Output)
	}
	if !strings.Contains(out.String(), "goblet") {
		t.Errorf("experiment output malformed: %s", out.String())
	}
	_, err = texcache.Run(context.Background(), texcache.ExperimentRequest{
		Experiments: []string{"bogus"},
	})
	var unknown *texcache.UnknownExperimentError
	if err == nil {
		t.Error("bogus experiment accepted")
	} else if !errors.As(err, &unknown) || unknown.ID != "bogus" {
		t.Errorf("error %v does not unwrap to *UnknownExperimentError{bogus}", err)
	}
}

func TestPerfModelFacade(t *testing.T) {
	m := texcache.DefaultPerfModel()
	if m.PeakFragmentsPerSecond() != 50e6 {
		t.Error("default model changed")
	}
}
