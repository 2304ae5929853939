package arch

import (
	"math/rand"
	"testing"
)

// simulateReference is the cycle recurrence with every ring and
// fragment index computed by division, as first written: the oracle the
// division-free Timeline.Simulate must match field for field. It
// assumes cfg is valid and built for t's cache.
func simulateReference(t *Timeline, cfg Config) Result {
	perCycle := uint64(cfg.TexelsPerCycle)
	fragTex := uint64(cfg.TexelsPerFragment)
	latU := uint64(cfg.FillLatency) * perCycle
	occU := uint64(cfg.FillOccupancy) * perCycle

	// The tag stage leads the filter stage by the fragment FIFO's texel
	// capacity. Lead 1 is the fused blocking machine: the tag check of
	// access i waits for the filter to finish access i-1, which is
	// exactly "stall the pipeline until the fill returns". Prefetch
	// with FragmentFIFO 0 degenerates to the same recurrence.
	lead := uint64(cfg.FragmentFIFO) * fragTex
	if cfg.Pipeline == Blocking || lead < 1 {
		lead = 1
	}
	reqDepth := cfg.RequestFIFO
	robDepth := cfg.ReorderBuffer
	resDepth := uint64(cfg.ResultFIFO)

	res := Result{Accesses: t.accesses, Misses: uint64(len(t.misses))}
	n := t.accesses
	if n == 0 {
		return res
	}

	// Per-miss issue and release times index by miss ordinal; the ring
	// buffers hold the sliding windows the queue-depth constraints read.
	issue := make([]uint64, len(t.misses))
	release := make([]uint64, len(t.misses))
	bRing := make([]uint64, lead)            // filter finish times, last `lead` accesses
	retireRing := make([]uint64, resDepth+1) // result-FIFO retire times

	var (
		fPrev, bPrev, rPrev uint64 // previous tag, filter, retire times
		channelFree         uint64 // single memory channel busy-until
		fillDone            uint64
		j                   int    // next miss ordinal
		fifoPtr             uint64 // oldest access still in the fragment FIFO
		robPtr, inflPtr     int    // released / completed miss pointers
		maxOccAcc           uint64 // fragment-FIFO high water, in accesses
	)
	for i := uint64(0); i < n; i++ {
		// Tag stage: one access per unit, blocked by fragment-FIFO
		// space — the slot of access i-lead must have drained, and a
		// freed slot is reusable the following unit. The +1 is what
		// makes the collapsed (lead 1) machine exactly the serial
		// blocking cache: access i starts strictly after access i-1
		// completes, so each miss costs the full fill round trip.
		f := fPrev + 1
		if i >= lead {
			if w := bRing[(i-lead)%lead] + 1; w > f {
				f = w
			}
		}
		isMiss := j < len(t.misses) && t.misses[j] == i
		if isMiss {
			// A miss also needs a request-FIFO slot (freed when the
			// channel accepts request j-R) and a reorder-buffer slot
			// (freed when the filter consumes miss j-B).
			if j >= reqDepth {
				if w := issue[j-reqDepth]; w > f {
					f = w
				}
			}
			if j >= robDepth {
				if w := release[j-robDepth]; w > f {
					f = w
				}
			}
		}
		for fifoPtr < i && bRing[fifoPtr%lead] < f {
			fifoPtr++
		}
		if occ := i - fifoPtr + 1; occ > maxOccAcc {
			maxOccAcc = occ
		}
		if isMiss {
			// Fill issue: in order, serialized on channel occupancy.
			is := f
			if channelFree > is {
				is = channelFree
			}
			issue[j] = is
			channelFree = is + occU
			fillDone = is + latU + occU
			for inflPtr < j && issue[inflPtr]+latU+occU <= is {
				inflPtr++
			}
			if in := j - inflPtr + 1; in > res.MaxInFlight {
				res.MaxInFlight = in
			}
			for robPtr < j && release[robPtr] <= f {
				robPtr++
			}
			if ro := j - robPtr + 1; ro > res.MaxReorder {
				res.MaxReorder = ro
			}
		}

		// Filter stage: in-order consume, one access per unit. Hits
		// never wait on memory; a miss waits for its own fill.
		b := bPrev + 1
		if f > b {
			b = f
		}
		if isMiss && fillDone > b {
			b = fillDone
		}
		if i%fragTex == 0 {
			// Fragment start: a result-FIFO slot must be free, i.e.
			// fragment g-1-resDepth has retired.
			if g := i / fragTex; g > resDepth {
				if w := retireRing[(g-1-resDepth)%(resDepth+1)]; w > b {
					b = w
				}
			}
		}
		bRing[i%lead] = b
		if isMiss {
			release[j] = b
			j++
		}

		// Retire stage: the finished fragment leaves the result FIFO at
		// its own filter rate (size texels per fragment slot).
		if (i+1)%fragTex == 0 || i+1 == n {
			size := i%fragTex + 1
			r := b
			if w := rPrev + size; w > r {
				r = w
			}
			retireRing[(i/fragTex)%(resDepth+1)] = r
			rPrev = r
			res.Fragments++
		}
		fPrev, bPrev = f, b
	}

	res.TotalCyc = ceilDiv(rPrev, perCycle)
	res.ComputeCyc = ceilDiv(n, perCycle)
	res.StallCyc = res.TotalCyc - res.ComputeCyc
	res.MaxFragmentFIFO = int(ceilDiv(maxOccAcc, fragTex))

	return res
}

// syntheticTimeline builds a timeline over n accesses whose misses fall
// where miss reports true, without replaying a cache.
func syntheticTimeline(n uint64, miss func(i uint64) bool) *Timeline {
	t := &Timeline{cfg: testCacheCfg(), accesses: n}
	for i := uint64(0); i < n; i++ {
		if miss(i) {
			t.misses = append(t.misses, i)
		}
	}
	return t
}

// checkAgainstReference runs both recurrences and compares every field.
func checkAgainstReference(t *testing.T, tl *Timeline, cfg Config) {
	t.Helper()
	got, err := tl.Simulate(cfg)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	if want := simulateReference(tl, cfg); got != want {
		t.Fatalf("%d accesses, %d misses, config %+v:\ngot  %+v\nwant %+v",
			tl.accesses, len(tl.misses), cfg, got, want)
	}
}

func TestSimulateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	patterns := []struct {
		name string
		miss func(rng *rand.Rand) func(i uint64) bool
	}{
		{"none", func(*rand.Rand) func(uint64) bool { return func(uint64) bool { return false } }},
		{"all", func(*rand.Rand) func(uint64) bool { return func(uint64) bool { return true } }},
		{"sparse", func(r *rand.Rand) func(uint64) bool {
			return func(uint64) bool { return r.Intn(40) == 0 }
		}},
		{"bursty", func(r *rand.Rand) func(uint64) bool {
			burst := 0
			return func(uint64) bool {
				if burst > 0 {
					burst--
					return true
				}
				if r.Intn(60) == 0 {
					burst = r.Intn(12)
					return true
				}
				return false
			}
		}},
	}
	pick := func(vals ...int) int { return vals[rng.Intn(len(vals))] }
	for _, p := range patterns {
		for trial := 0; trial < 60; trial++ {
			// Lengths that are and are not multiples of the fragment size,
			// including a single access.
			n := uint64(pick(1, 7, 64, 257, 1000, 4099))
			tl := syntheticTimeline(n, p.miss(rng))
			cfg := Config{
				Cache:             testCacheCfg(),
				Pipeline:          Pipeline(rng.Intn(2)),
				FragmentFIFO:      pick(0, 1, 3, 5, 64),
				RequestFIFO:       pick(1, 2, 7, 32),
				ReorderBuffer:     pick(1, 3, 32),
				ResultFIFO:        pick(0, 1, 2, 8),
				TexelsPerCycle:    pick(1, 3, 4),
				TexelsPerFragment: pick(1, 3, 8),
				FillLatency:       pick(0, 1, 37, 100),
				FillOccupancy:     pick(1, 4, 9),
			}
			checkAgainstReference(t, tl, cfg)
		}
	}
}

func TestSimulateMatchesReferenceOnTraces(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		tl, err := NewTimeline(testCacheCfg(), randomTrace(20011, seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Pipeline{Blocking, Prefetch} {
			checkAgainstReference(t, tl, Default(testCacheCfg(), p))
		}
		cfg := Default(testCacheCfg(), Prefetch)
		cfg.FragmentFIFO, cfg.RequestFIFO, cfg.ReorderBuffer, cfg.ResultFIFO = 5, 1, 1, 1
		checkAgainstReference(t, tl, cfg)
	}
}

func FuzzTimeline(f *testing.F) {
	f.Add(uint16(1000), []byte{0x11, 0x80}, true, uint8(64), uint8(32), uint8(32), uint8(8), uint8(4), uint8(8), uint8(100), uint8(4))
	f.Add(uint16(17), []byte{0xFF}, false, uint8(0), uint8(1), uint8(1), uint8(0), uint8(1), uint8(3), uint8(0), uint8(1))
	f.Add(uint16(9), []byte{}, true, uint8(3), uint8(1), uint8(1), uint8(1), uint8(3), uint8(5), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, n uint16, missBits []byte, prefetch bool,
		fragFIFO, reqFIFO, rob, resFIFO, perCycle, perFrag, lat, occ uint8) {
		// Bit i of missBits (cycled) marks access i a miss; no bits, no
		// misses.
		tl := syntheticTimeline(uint64(n), func(i uint64) bool {
			if len(missBits) == 0 {
				return false
			}
			return missBits[(i/8)%uint64(len(missBits))]>>(i%8)&1 == 1
		})
		p := Blocking
		if prefetch {
			p = Prefetch
		}
		cfg := Config{
			Cache:             testCacheCfg(),
			Pipeline:          p,
			FragmentFIFO:      int(fragFIFO),
			RequestFIFO:       int(reqFIFO) + 1,
			ReorderBuffer:     int(rob) + 1,
			ResultFIFO:        int(resFIFO),
			TexelsPerCycle:    int(perCycle%16) + 1,
			TexelsPerFragment: int(perFrag%16) + 1,
			FillLatency:       int(lat),
			FillOccupancy:     int(occ%16) + 1,
		}
		checkAgainstReference(t, tl, cfg)
	})
}
