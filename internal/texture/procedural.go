package texture

// Procedural texture image generators. Cache behavior depends only on the
// address stream, never on texel contents, but distinctive images make the
// rendered verification output legible and give the filtering tests
// meaningful data to interpolate.

// Checker returns a w x h checkerboard with cells x cells squares in the
// two given colors.
func Checker(w, h, cells int, a, b Texel) *Image {
	im := NewImage(w, h)
	cw, ch := max(1, w/cells), max(1, h/cells)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if ((x/cw)+(y/ch))%2 == 0 {
				im.Set(x, y, a)
			} else {
				im.Set(x, y, b)
			}
		}
	}
	return im
}

// Gradient returns a w x h image sweeping from c0 at the left edge to c1
// at the right, with a vertical brightness ramp for orientation cues.
func Gradient(w, h int, c0, c1 Texel) *Image {
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		vy := 0.5 + 0.5*float64(y)/float64(max(1, h-1))
		for x := 0; x < w; x++ {
			t := float64(x) / float64(max(1, w-1))
			mix := func(a, b uint8) uint8 {
				return uint8((float64(a)*(1-t) + float64(b)*t) * vy)
			}
			im.Set(x, y, Texel{mix(c0.R, c1.R), mix(c0.G, c1.G), mix(c0.B, c1.B), 255})
		}
	}
	return im
}

// Noise returns a w x h image of deterministic value noise seeded by seed,
// resembling the satellite-photo style content of the Flight textures.
func Noise(w, h int, seed uint64) *Image {
	im := NewImage(w, h)
	// A few octaves of hashed lattice noise. An octave's value is
	// constant over each step x step cell, and the steps are powers of
	// two that divide every coarser one, so a row that does not start a
	// cell of the finest octave repeats the row above it, and a row is
	// summed one cell per octave at a time, in octave order.
	var steps [4]int
	for oct := range steps {
		steps[oct] = max(1, min(w, h)>>(2+oct))
	}
	v := make([]float64, w)
	for y := 0; y < h; y++ {
		row := im.Pix[y*w : (y+1)*w]
		if y%steps[len(steps)-1] != 0 {
			copy(row, im.Pix[(y-1)*w:y*w])
			continue
		}
		clear(v)
		amp := 0.5
		for oct, step := range steps {
			for x0 := 0; x0 < w; x0 += step {
				n := amp * latticeNoise(x0/step, y/step, seed+uint64(oct))
				for x := x0; x < x0+step; x++ {
					v[x] += n
				}
			}
			amp /= 2
		}
		for x, vx := range v {
			g := uint8(Clamp01(vx) * 255)
			row[x] = Texel{g, uint8(float64(g) * 0.8), uint8(float64(g) * 0.6), 255}
		}
	}
	return im
}

// latticeNoise hashes an integer lattice point to [0, 1).
func latticeNoise(x, y int, seed uint64) float64 {
	h := hash64(uint64(uint32(x))<<32 | uint64(uint32(y)) ^ seed*0x9E3779B97F4A7C15)
	return float64(h>>40) / float64(1<<24)
}

// hash64 is SplitMix64's finalizer, a strong 64-bit mixer.
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Clamp01 limits x to [0, 1].
func Clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Brick returns a w x h brick-wall pattern, the canonical repeated texture
// from Section 3.1.2's wall example.
func Brick(w, h int) *Image {
	im := NewImage(w, h)
	brick := Texel{170, 60, 45, 255}
	mortar := Texel{200, 195, 185, 255}
	bw, bh := max(4, w/4), max(2, h/4)
	for y := 0; y < h; y++ {
		row := y / bh
		for x := 0; x < w; x++ {
			xo := x
			if row%2 == 1 {
				xo += bw / 2
			}
			if y%bh == 0 || xo%bw == 0 {
				im.Set(x, y, mortar)
			} else {
				im.Set(x, y, brick)
			}
		}
	}
	return im
}
