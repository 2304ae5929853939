package stats

// texelSet is an insert-only set of packed texel keys: an open-addressing
// table with the Fibonacci-hash start index and linear probe of the
// cache package's line index. Zero marks an empty slot, so the one key
// that packs to zero (texture 0, level 0, both coordinates at the
// packing offset's negative limit) is tracked by a flag instead.
type texelSet struct {
	keys    []uint64
	shift   uint // 64 - log2(len(keys)); start index = (k * phi) >> shift
	used    int  // nonzero keys in keys
	hasZero bool
}

// texelHashMul is the 64-bit golden-ratio multiplier of Fibonacci
// hashing.
const texelHashMul = 0x9E3779B97F4A7C15

// texelSetMinLog is the log2 of the first table size.
const texelSetMinLog = 10

// add inserts k (a no-op when it is already present).
func (s *texelSet) add(k uint64) {
	if k == 0 {
		s.hasZero = true
		return
	}
	if s.keys == nil {
		s.keys = make([]uint64, 1<<texelSetMinLog)
		s.shift = 64 - texelSetMinLog
	}
	mask := uint64(len(s.keys) - 1)
	for j := (k * texelHashMul) >> s.shift; ; j = (j + 1) & mask {
		switch s.keys[j] {
		case k:
			return
		case 0:
			s.keys[j] = k
			s.used++
			if s.used > len(s.keys)/4*3 {
				s.grow()
			}
			return
		}
	}
}

// grow doubles the table and re-inserts every key.
func (s *texelSet) grow() {
	old := s.keys
	s.keys = make([]uint64, 2*len(old))
	s.shift--
	s.used = 0
	for _, k := range old {
		if k != 0 {
			s.add(k)
		}
	}
}

// len returns the number of distinct keys added.
func (s *texelSet) len() int {
	if s.hasZero {
		return s.used + 1
	}
	return s.used
}
