package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// sdProfile is everything a stack-distance profile exposes: the full
// distance histogram (trailing zeros trimmed), the cold, distinct-line
// and access counts.
type sdProfile struct {
	hist     []uint64
	cold     uint64
	distinct int
	accesses uint64
}

// profileOf reads a profiler's observable state.
func profileOf(s *StackDist) sdProfile {
	h := s.hist
	for len(h) > 0 && h[len(h)-1] == 0 {
		h = h[:len(h)-1]
	}
	return sdProfile{hist: slices.Clone(h), cold: s.ColdMisses(),
		distinct: s.DistinctLines(), accesses: s.Accesses()}
}

// refStackDist is the textbook Mattson stack algorithm: an explicit
// recency list, most recent first, searched linearly on every access.
// A line's stack distance is its 1-based depth in the list.
func refStackDist(lineBytes int, addrs []uint64) sdProfile {
	shift := uint(bits.TrailingZeros(uint(lineBytes)))
	var stack []uint64
	var p sdProfile
	for _, a := range addrs {
		la := a >> shift
		p.accesses++
		i := slices.Index(stack, la)
		if i < 0 {
			p.cold++
			stack = append(stack, 0)
			i = len(stack) - 1
		} else {
			d := i + 1
			for d >= len(p.hist) {
				p.hist = append(p.hist, 0)
			}
			p.hist[d]++
		}
		copy(stack[1:i+1], stack[:i])
		stack[0] = la
	}
	p.distinct = len(stack)
	return p
}

// assertProfileEqual compares two profiles field by field, every
// histogram bucket included.
func assertProfileEqual(t *testing.T, label string, want, got sdProfile) {
	t.Helper()
	if want.accesses != got.accesses || want.cold != got.cold || want.distinct != got.distinct {
		t.Fatalf("%s: totals diverge: want (acc %d cold %d distinct %d) got (acc %d cold %d distinct %d)",
			label, want.accesses, want.cold, want.distinct, got.accesses, got.cold, got.distinct)
	}
	if len(want.hist) != len(got.hist) {
		t.Fatalf("%s: deepest distance diverges: want %d got %d", label, len(want.hist)-1, len(got.hist)-1)
	}
	for d := range want.hist {
		if want.hist[d] != got.hist[d] {
			t.Fatalf("%s: hist[%d] diverges: want %d got %d", label, d, want.hist[d], got.hist[d])
		}
	}
}

// sdStream draws n byte addresses over a universe of lines lines of
// lineBytes each: runs that re-reference the previous address (the MRU
// fast path), re-references of recent addresses, uniform picks from the
// universe (deep distances and new lines) and a sequential sweep.
func sdStream(rng *rand.Rand, n, lines, lineBytes int, mru float64) []uint64 {
	addrs := make([]uint64, 0, n)
	var sweep int
	for len(addrs) < n {
		var la int
		switch r := rng.Float64(); {
		case len(addrs) > 0 && r < mru:
			addrs = append(addrs, addrs[len(addrs)-1])
			continue
		case len(addrs) > 32 && r < mru+(1-mru)/2:
			addrs = append(addrs, addrs[len(addrs)-1-rng.Intn(32)])
			continue
		case r < mru+(1-mru)*0.9:
			la = rng.Intn(lines)
		default:
			la = sweep % lines
			sweep++
		}
		addrs = append(addrs, uint64(la*lineBytes+rng.Intn(lineBytes)))
	}
	return addrs
}

// feedRandomBatches replays addrs into s in random-length batches, some
// of them single Access calls and some empty.
func feedRandomBatches(rng *rand.Rand, s *StackDist, addrs []uint64) {
	for lo := 0; lo < len(addrs); {
		if rng.Intn(8) == 0 {
			s.Access(addrs[lo])
			lo++
			continue
		}
		n := min(rng.Intn(3000), len(addrs)-lo)
		s.AccessBatch(addrs[lo : lo+n])
		lo += n
	}
}

// TestStackDistMatchesReference is the profiler's full-histogram
// differential test: on random streams with MRU runs, enough distinct
// lines to double the tree several times and enough non-MRU accesses to
// compact it many times, fed in random batches, every hist[d] and the
// cold, distinct and access counts must equal the naive recency list's.
func TestStackDistMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		line, n, lines int
		mru            float64
	}{
		{64, 120000, 6000, 0.5},
		{4, 60000, 5000, 0.2},
		{256, 80000, 300, 0.6},
		{32, 40000, 20, 0.3},
	} {
		label := fmt.Sprintf("line %d, %d addrs over %d lines, mru %.1f", tc.line, tc.n, tc.lines, tc.mru)
		addrs := sdStream(rng, tc.n, tc.lines, tc.line, tc.mru)
		want := refStackDist(tc.line, addrs)
		s := NewStackDist(tc.line)
		feedRandomBatches(rng, s, addrs)
		assertProfileEqual(t, label, want, profileOf(s))
		if tc.lines < 4*stackDistMinSlots {
			continue
		}
		// The large streams must reach the paths they exist for: several
		// tree doublings, and many compactions (one per half clock of
		// non-MRU accesses at most).
		if want.distinct < 4*stackDistMinSlots {
			t.Errorf("%s: only %d distinct lines, too few to double the tree three times", label, want.distinct)
		}
		var mruHits uint64
		if len(want.hist) > 1 {
			mruHits = want.hist[1]
		}
		if moves := want.accesses - mruHits; moves < 16*stackDistMinSlots {
			t.Errorf("%s: only %d clock advances, too few for many compactions", label, moves)
		}
	}
}

// FuzzStackDist differentially fuzzes the profiler against the naive
// recency list over generated streams: the fuzzer picks the seed, line
// size, length, line universe and MRU-run probability.
func FuzzStackDist(f *testing.F) {
	f.Add(int64(1), uint8(6), uint16(5000), uint16(3000), uint8(128))
	f.Add(int64(2), uint8(2), uint16(20000), uint16(64), uint8(200))
	f.Add(int64(3), uint8(7), uint16(1), uint16(1), uint8(0))
	f.Add(int64(4), uint8(5), uint16(30000), uint16(2500), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, lineLog uint8, n, lines uint16, mru uint8) {
		line := 4 << (lineLog % 7) // 4B .. 256B
		rng := rand.New(rand.NewSource(seed))
		addrs := sdStream(rng, int(n), int(lines)+1, line, float64(mru)/256)
		s := NewStackDist(line)
		feedRandomBatches(rng, s, addrs)
		assertProfileEqual(t, fmt.Sprintf("seed %d line %d", seed, line), refStackDist(line, addrs), profileOf(s))
	})
}
