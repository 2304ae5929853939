package cache

// lineIndex maps line addresses to small dense int32 values (a stack
// slot in the grouped simulator, a line id in the stack-distance
// profiler). It is an insert-only open-addressing table: neither user
// ever forgets a line, so there are no deletions and no tombstones. One
// multiplicative hash plus a short linear probe beats the general map on
// the hottest lookup of both replay kernels.
type lineIndex struct {
	keys  []uint64
	vals  []int32 // nilNode marks an empty slot
	shift uint    // 64 - log2(len(vals)); hash = (la * phi) >> shift
	used  int
}

// lineHashMul is the 64-bit golden-ratio multiplier of Fibonacci
// hashing; the table start index is its product's top bits.
const lineHashMul = 0x9E3779B97F4A7C15

// init sizes the table at 2^logCap slots, all empty.
func (x *lineIndex) init(logCap uint) {
	x.keys = make([]uint64, 1<<logCap)
	x.vals = make([]int32, 1<<logCap)
	for i := range x.vals {
		x.vals[i] = nilNode
	}
	x.shift = 64 - logCap
	x.used = 0
}

// find probes for la, returning its value, the table index the probe
// ended at (la's index on hit, the insertion point on miss), and whether
// it was found.
func (x *lineIndex) find(la uint64) (int32, uint64, bool) {
	mask := uint64(len(x.vals) - 1)
	for j := (la * lineHashMul) >> x.shift; ; j = (j + 1) & mask {
		v := x.vals[j]
		if v == nilNode {
			return 0, j, false
		}
		if x.keys[j] == la {
			return v, j, true
		}
	}
}

// insert records la -> v at the probe position find returned, growing
// (and re-probing) when the table passes 3/4 load.
func (x *lineIndex) insert(la uint64, v int32, j uint64) {
	if x.used >= len(x.vals)/4*3 {
		oldKeys, oldVals, oldUsed := x.keys, x.vals, x.used
		x.init(64 - x.shift + 1)
		for i, ov := range oldVals {
			if ov != nilNode {
				_, jj, _ := x.find(oldKeys[i])
				x.keys[jj] = oldKeys[i]
				x.vals[jj] = ov
			}
		}
		x.used = oldUsed
		_, j, _ = x.find(la)
	}
	x.keys[j] = la
	x.vals[j] = v
	x.used++
}
