package texture

import (
	"fmt"
	"testing"
)

// noiseReference is Noise as first written: four lattice hashes per
// texel. Noise must reproduce it bit for bit, since the scenes' textures
// (and so the framebuffer fixtures) are built from it.
func noiseReference(w, h int, seed uint64) *Image {
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 0.0
			amp := 0.5
			for oct := 0; oct < 4; oct++ {
				step := max(1, min(w, h)>>(2+oct))
				v += amp * latticeNoise(x/step, y/step, seed+uint64(oct))
				amp /= 2
			}
			g := uint8(Clamp01(v) * 255)
			im.Set(x, y, Texel{g, uint8(float64(g) * 0.8), uint8(float64(g) * 0.6), 255})
		}
	}
	return im
}

func TestNoiseMatchesReference(t *testing.T) {
	sizes := [][2]int{{1, 1}, {2, 1}, {1, 8}, {4, 4}, {16, 16}, {64, 16}, {16, 256}, {128, 32}, {256, 256}, {1024, 1024}}
	seeds := []uint64{0, 1, 0x6017A2, 0xF11907, ^uint64(0)}
	for _, sz := range sizes {
		for _, seed := range seeds {
			if sz[0] == 1024 && seed > 1 {
				continue // two seeds of the largest image are enough
			}
			t.Run(fmt.Sprintf("%dx%d/%#x", sz[0], sz[1], seed), func(t *testing.T) {
				got, want := Noise(sz[0], sz[1], seed), noiseReference(sz[0], sz[1], seed)
				for i := range want.Pix {
					if got.Pix[i] != want.Pix[i] {
						t.Fatalf("texel (%d,%d) = %v, want %v",
							i%sz[0], i/sz[0], got.Pix[i], want.Pix[i])
					}
				}
			})
		}
	}
}
