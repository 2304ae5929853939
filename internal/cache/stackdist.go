package cache

import "math/bits"

// StackDist is an LRU stack-distance profiler (Mattson et al.'s stack
// algorithm with a Fenwick-tree acceleration). Feeding it the texel
// address trace once yields the exact miss rate of a fully-associative
// LRU cache of *every* capacity simultaneously, which is how the
// miss-rate-versus-cache-size working-set curves (Figures 5.2, 5.6 and
// 6.2 of the paper) are produced without re-simulating per size.
//
// The profiler works at line granularity: construct it with the line size
// under study.
//
// Each line gets a dense id from an insert-only hash index. Every
// access that is not a re-reference of the most recent line takes the
// next slot on a virtual clock; the Fenwick tree holds one marker per
// live line, at the slot of its latest access, so a line's stack
// distance is the number of markers at or after its previous slot. The
// tree is sized to the live-line count, not to the trace: when the clock
// runs off its end, live lines are renumbered 1..n in recency order and
// the tree is rebuilt, twice as large when more than half of it is live.
type StackDist struct {
	lineShift uint
	lineBytes int

	index lineIndex // line address -> dense line id
	mru   uint64    // line address of the most recent access

	last    []int32 // last[id] = clock slot of line id's latest access
	owner   []int32 // owner[t] = id of the line whose latest access is slot t, or nilNode
	fenwick []int32 // 1-based Fenwick tree over clock slots 1..len-1
	now     int32   // next clock slot to assign (1-based)

	hist     []uint64 // hist[d] = accesses with stack distance d (1-based)
	cold     uint64   // first-ever accesses (infinite distance)
	accesses uint64
}

// Initial and largest clock lengths. The tree starts small, because the
// paper's traces touch only thousands of distinct lines, and doubles on
// demand; the largest keeps slots inside int32.
const (
	stackDistMinSlots = 1 << 10
	stackDistMaxSlots = 1 << 30
)

// NewStackDist returns a profiler for the given cache line size, which
// must be a power of two >= 4.
func NewStackDist(lineBytes int) *StackDist {
	if lineBytes < 4 || bits.OnesCount(uint(lineBytes)) != 1 {
		panic("cache: stack distance line size must be a power of two >= 4")
	}
	s := &StackDist{
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		lineBytes: lineBytes,
		mru:       ^uint64(0), // no line address: lineShift >= 2
		owner:     make([]int32, stackDistMinSlots+1),
		fenwick:   make([]int32, stackDistMinSlots+1),
		now:       1,
		hist:      make([]uint64, 2),
	}
	s.index.init(10)
	return s
}

// LineBytes returns the line size the profiler was built for.
func (s *StackDist) LineBytes() int { return s.lineBytes }

// Access records one texel byte address.
func (s *StackDist) Access(addr uint64) {
	s.AccessBatch([]uint64{addr})
}

// AccessBatch records every address of addrs in order, exactly as
// len(addrs) Access calls would.
func (s *StackDist) AccessBatch(addrs []uint64) {
	s.accesses += uint64(len(addrs))
	for _, addr := range addrs {
		la := addr >> s.lineShift
		if la == s.mru {
			// Re-reference of the most recent line: distance 1. The
			// clock does not advance, because the line's marker is
			// already the latest, so the tree and index stay untouched.
			s.hist[1]++
			continue
		}
		s.mru = la
		if int(s.now) == len(s.fenwick) {
			s.compact()
		}
		t := s.now
		s.now++
		id, j, ok := s.index.find(la)
		if ok {
			// Lines accessed since la's last access, inclusive of la
			// itself: la's marker plus the live markers after it. Every
			// line ever seen has a marker, so those after lt number
			// len(last) - prefix(lt).
			lt := s.last[id]
			s.record(int32(len(s.last)) - s.prefix(lt) + 1)
			s.owner[lt] = nilNode
			s.move(lt, t)
			s.last[id] = t
		} else {
			s.cold++
			id = int32(len(s.last))
			s.last = append(s.last, t)
			s.index.insert(la, id, j)
			s.add(t, 1)
		}
		s.owner[t] = id
	}
}

// record tallies one access at stack distance d.
func (s *StackDist) record(d int32) {
	for int(d) >= len(s.hist) {
		s.hist = append(s.hist, make([]uint64, len(s.hist))...)
	}
	s.hist[d]++
}

// add adds delta markers at slot i.
func (s *StackDist) add(i int32, delta int32) {
	for n := int32(len(s.fenwick)); i < n; i += i & (-i) {
		s.fenwick[i] += delta
	}
}

// move shifts one marker from slot from to the later slot to. The two
// update paths climb to a common node, above which the -1 and +1 cancel,
// so the walk stops there.
func (s *StackDist) move(from, to int32) {
	f := s.fenwick
	n := int32(len(f))
	for from != to {
		if from < to {
			f[from]--
			if from += from & -from; from > n {
				from = n
			}
		} else {
			f[to]++
			if to += to & -to; to > n {
				to = n
			}
		}
	}
}

// prefix returns the number of live markers at slots <= i.
func (s *StackDist) prefix(i int32) int32 {
	var sum int32
	for ; i > 0; i -= i & (-i) {
		sum += s.fenwick[i]
	}
	return sum
}

// compact renumbers the live lines 1..n in recency order with one pass
// over the clock, doubling the clock first while more than half of it
// would be live, and rebuilds the tree for markers at exactly 1..n.
// Distances are differences of marker counts, so they are unchanged.
func (s *StackDist) compact() {
	live := len(s.last)
	slots := len(s.fenwick) - 1
	for 2*live > slots {
		if slots >= stackDistMaxSlots {
			panic("cache: stack-distance profiler exceeded line capacity")
		}
		slots *= 2
	}
	if slots+1 > len(s.owner) {
		owner := make([]int32, slots+1)
		copy(owner, s.owner[:s.now])
		s.owner = owner
		s.fenwick = make([]int32, slots+1)
	}
	n := int32(0)
	for t := int32(1); t < s.now; t++ {
		if id := s.owner[t]; id != nilNode {
			n++
			s.owner[n] = id
			s.last[id] = n
		}
	}
	// Node i covers slots (i-lowbit(i), i]; with markers at 1..n it
	// holds the part of that range at or below n.
	for i := 1; i < len(s.fenwick); i++ {
		lo := i - i&(-i)
		s.fenwick[i] = int32(max(0, min(i, int(n))-lo))
	}
	s.now = n + 1
}

// Accesses returns the number of accesses profiled.
func (s *StackDist) Accesses() uint64 { return s.accesses }

// ColdMisses returns the number of first-ever line accesses.
func (s *StackDist) ColdMisses() uint64 { return s.cold }

// DistinctLines returns the number of distinct cache lines touched.
func (s *StackDist) DistinctLines() int { return len(s.last) }

// MissesAt returns the number of misses a fully-associative LRU cache
// with the given capacity in lines would incur on the profiled trace.
func (s *StackDist) MissesAt(lines int) uint64 {
	if lines <= 0 {
		return s.accesses
	}
	var hits uint64
	for d := 1; d <= lines && d < len(s.hist); d++ {
		hits += s.hist[d]
	}
	return s.accesses - hits
}

// MissRateAt returns the fully-associative LRU miss rate at a cache of
// sizeBytes capacity (with the profiler's line size).
func (s *StackDist) MissRateAt(sizeBytes int) float64 {
	if s.accesses == 0 {
		return 0
	}
	return float64(s.MissesAt(sizeBytes/s.lineBytes)) / float64(s.accesses)
}

// Curve evaluates the miss rate at each of the given cache sizes in
// bytes, in order — one figure series per call.
func (s *StackDist) Curve(sizesBytes []int) []float64 {
	out := make([]float64, len(sizesBytes))
	for i, sz := range sizesBytes {
		out[i] = s.MissRateAt(sz)
	}
	return out
}
