package stats

import (
	"math/rand"
	"testing"

	"texcache/internal/texture"
)

// mapLocality is the map-based definition of the distinct-texel counts
// Locality keeps in open-addressing sets.
type mapLocality struct {
	distinct [3]map[uint64]bool
	wrapped  map[uint64]bool
	unwrap   map[uint64]bool
}

func newMapLocality() *mapLocality {
	m := &mapLocality{wrapped: map[uint64]bool{}, unwrap: map[uint64]bool{}}
	for i := range m.distinct {
		m.distinct[i] = map[uint64]bool{}
	}
	return m
}

func (m *mapLocality) record(e texture.AccessEvent) {
	wk := texelKey(e.TexID, e.Level, e.TU, e.TV)
	m.distinct[e.Kind][wk] = true
	m.wrapped[wk] = true
	m.unwrap[texelKey(e.TexID, e.Level, e.RawU, e.RawV)] = true
}

// zeroKeyCoord is the coordinate that, with texture 0 and level 0,
// packs to the key zero.
const zeroKeyCoord = -(1 << 19)

func TestLocalityMatchesMapReference(t *testing.T) {
	if texelKey(0, 0, zeroKeyCoord, zeroKeyCoord) != 0 {
		t.Fatal("zeroKeyCoord does not pack to zero")
	}
	for _, tc := range []struct {
		name   string
		events int
		span   int // coordinate range; wide spans force several table growths
		zero   bool
	}{
		{"empty", 0, 1, false},
		{"zero-only", 0, 1, true},
		{"small", 500, 8, true},
		{"dense", 20000, 32, false},
		{"wide", 200000, 1 << 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.events) + 7))
			got, want := NewLocality(), newMapLocality()
			record := func(e texture.AccessEvent) {
				got.Record(e)
				want.record(e)
			}
			if tc.zero {
				// The zero key as a wrapped texel, as a pre-wrap texel, and
				// twice, so a set that drops it or counts it twice fails.
				for i := 0; i < 2; i++ {
					record(ev(0, 0, zeroKeyCoord, zeroKeyCoord, zeroKeyCoord, zeroKeyCoord, texture.AccessBilinear))
					record(ev(0, 0, 3, 3, zeroKeyCoord, zeroKeyCoord, texture.AccessTrilinearLower))
				}
			}
			for i := 0; i < tc.events; i++ {
				tu, tv := rng.Intn(tc.span), rng.Intn(tc.span)
				// Pre-wrap coordinates reach below zero and past the image.
				ru := tu + tc.span*(rng.Intn(5)-2)
				rv := tv + tc.span*(rng.Intn(5)-2)
				record(ev(rng.Intn(4), rng.Intn(3), tu, tv, ru, rv, texture.AccessKind(rng.Intn(3))))
			}
			for k := range want.distinct {
				if g, w := got.distinct[k].len(), len(want.distinct[k]); g != w {
					t.Errorf("kind %d: %d distinct texels, reference %d", k, g, w)
				}
			}
			if g, w := got.UniqueTexels(), len(want.wrapped); g != w {
				t.Errorf("unique texels %d, reference %d", g, w)
			}
			if g, w := got.unwrap.len(), len(want.unwrap); g != w {
				t.Errorf("distinct pre-wrap texels %d, reference %d", g, w)
			}
			// The set holds exactly the reference's keys.
			for _, s := range []struct {
				set *texelSet
				ref map[uint64]bool
			}{{&got.wrapped, want.wrapped}, {&got.unwrap, want.unwrap}} {
				n := 0
				for _, k := range s.set.keys {
					if k != 0 {
						n++
						if !s.ref[k] {
							t.Fatalf("set holds key %#x the reference never saw", k)
						}
					}
				}
				if s.set.hasZero != s.ref[0] || n+boolInt(s.set.hasZero) != len(s.ref) {
					t.Errorf("set holds %d keys (zero %v), reference %d (zero %v)",
						n, s.set.hasZero, len(s.ref), s.ref[0])
				}
			}
		})
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
