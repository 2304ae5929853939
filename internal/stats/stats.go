// Package stats implements the trace-level locality measurements of
// Sections 3.1.2 and 5.2.3: accesses per texel by interpolation category,
// texture repetition factors, texture runlengths, and the texture-used
// accounting behind Table 4.1.
package stats

import (
	"fmt"

	"texcache/internal/texture"
)

// texelKey packs (texID, level, x, y) into one set key. Coordinates are
// offset so slightly negative pre-wrap coordinates (from the -0.5 filter
// footprint shift) stay valid.
func texelKey(texID, level, x, y int) uint64 {
	const off = 1 << 19
	return uint64(texID)<<46 | uint64(level)<<40 |
		uint64(uint32(x+off))<<20&0xFFFFF00000 | uint64(uint32(y+off))&0xFFFFF
}

// Locality accumulates per-texel access statistics from sampler events.
// Attach Record as the pipeline's OnAccess callback.
type Locality struct {
	accesses [3]uint64   // indexed by texture.AccessKind
	distinct [3]texelSet // distinct wrapped texels per kind
	wrapped  texelSet    // distinct wrapped texels, all kinds
	unwrap   texelSet    // distinct pre-wrap texels, all kinds

	// Runlength tracking: a run is a maximal sequence of consecutive
	// accesses to the same texture.
	curTex   int
	runCount uint64
	total    uint64
}

// NewLocality returns an empty collector.
func NewLocality() *Locality {
	return &Locality{curTex: -1}
}

// Record consumes one access event.
func (l *Locality) Record(e texture.AccessEvent) {
	k := int(e.Kind)
	l.accesses[k]++
	l.total++

	wk := texelKey(e.TexID, e.Level, e.TU, e.TV)
	l.distinct[k].add(wk)
	l.wrapped.add(wk)
	l.unwrap.add(texelKey(e.TexID, e.Level, e.RawU, e.RawV))

	if e.TexID != l.curTex {
		l.curTex = e.TexID
		l.runCount++
	}
}

// AccessesPerTexel returns the average number of accesses per distinct
// texel for the given interpolation category — the Section 3.1.2
// measurement whose expected values are ~4 for the trilinear lower level,
// ~16 for the upper level, and scene-dependent for bilinear.
func (l *Locality) AccessesPerTexel(kind texture.AccessKind) float64 {
	d := l.distinct[kind].len()
	if d == 0 {
		return 0
	}
	return float64(l.accesses[kind]) / float64(d)
}

// Accesses returns the total access count for a category.
func (l *Locality) Accesses(kind texture.AccessKind) uint64 { return l.accesses[kind] }

// TotalAccesses returns all texel accesses recorded.
func (l *Locality) TotalAccesses() uint64 { return l.total }

// RepetitionFactor returns the average number of times a texel is reused
// through texture-coordinate wrapping: distinct pre-wrap texel positions
// divided by distinct in-image texels (1.0 = no repetition).
func (l *Locality) RepetitionFactor() float64 {
	if l.wrapped.len() == 0 {
		return 0
	}
	return float64(l.unwrap.len()) / float64(l.wrapped.len())
}

// UniqueTexels returns the number of distinct Mip Map texels touched.
func (l *Locality) UniqueTexels() int { return l.wrapped.len() }

// TextureUsedBytes returns the Table 4.1 "Texture Used" figure: the
// memory footprint of the distinct texels actually fetched.
func (l *Locality) TextureUsedBytes() int {
	return l.wrapped.len() * texture.TexelBytes
}

// AverageRunlength returns the mean length of maximal same-texture access
// runs (Section 5.2.3). Scenes that draw each texture's triangles
// consecutively exhibit runlengths in the hundreds of thousands.
func (l *Locality) AverageRunlength() float64 {
	if l.runCount == 0 {
		return 0
	}
	return float64(l.total) / float64(l.runCount)
}

// Runs returns the number of same-texture runs observed.
func (l *Locality) Runs() uint64 { return l.runCount }

// Summary formats the headline numbers for experiment output.
func (l *Locality) Summary() string {
	return fmt.Sprintf(
		"accesses/texel: lower=%.1f upper=%.1f bilinear=%.1f; repetition=%.2f; runlength=%.0f (%d runs); unique texels=%d",
		l.AccessesPerTexel(texture.AccessTrilinearLower),
		l.AccessesPerTexel(texture.AccessTrilinearUpper),
		l.AccessesPerTexel(texture.AccessBilinear),
		l.RepetitionFactor(),
		l.AverageRunlength(), l.runCount,
		l.UniqueTexels())
}
