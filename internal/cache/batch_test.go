package cache

import (
	"math/rand"
	"testing"
)

// Differential tests for the batch replay kernels: AccessBatch on every
// sink must be observationally equivalent to a loop of Access calls —
// same hit/miss decisions, same statistics, same final cache state, same
// observer callback sequence — for every configuration, including the
// ones that route through the scalar fallback (fully-associative,
// classifying, miss-observed, non-LRU).

// feedBatches replays addrs through AccessBatch in randomly sized blocks
// (including empty and single-address blocks) and returns the total hit
// count the batch calls reported.
func feedBatches(rng *rand.Rand, c *Cache, addrs []uint64) int {
	hits := 0
	for lo := 0; lo < len(addrs); {
		n := rng.Intn(257)
		if lo+n > len(addrs) {
			n = len(addrs) - lo
		}
		hits += c.AccessBatch(addrs[lo : lo+n])
		lo += n
	}
	hits += c.AccessBatch(nil) // empty batch is a no-op
	return hits
}

// assertCacheEqual fails unless the two caches hold identical
// statistics, line state and recency order (tags, stamps and the LRU
// clock are compared directly; the fully-associative path is compared
// through its statistics and residency probes in the callers).
func assertCacheEqual(t *testing.T, label string, want, got *Cache) {
	t.Helper()
	if want.Stats() != got.Stats() {
		t.Fatalf("%s: stats diverge: scalar %+v batch %+v", label, want.Stats(), got.Stats())
	}
	if want.clock != got.clock {
		t.Fatalf("%s: clock diverges: scalar %d batch %d", label, want.clock, got.clock)
	}
	for i := range want.tags {
		if want.tags[i] != got.tags[i] {
			t.Fatalf("%s: tags[%d] diverge: scalar %#x batch %#x", label, i, want.tags[i], got.tags[i])
		}
		if want.stamps[i] != got.stamps[i] {
			t.Fatalf("%s: stamps[%d] diverge: scalar %d batch %d", label, i, want.stamps[i], got.stamps[i])
		}
	}
}

// TestAccessBatchMatchesScalar is the core property: over randomized
// configurations (direct-mapped through fully-associative, all three
// replacement policies, classifying on and off) and a structured address
// stream, batch replay must report the same hit count and leave the
// cache in the same state as per-address replay.
func TestAccessBatchMatchesScalar(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		tr := diffTrace(seed, 20000)
		for _, cfg := range randomConfigs(rng, 16) {
			for _, classify := range []bool{false, true} {
				mk := TryNew
				if classify {
					mk = TryNewClassifying
				}
				scalar, err := mk(cfg)
				if err != nil {
					t.Fatal(err)
				}
				batch, _ := mk(cfg)

				wantHits := 0
				for _, a := range tr.Addrs {
					if scalar.Access(a) {
						wantHits++
					}
				}
				gotHits := feedBatches(rng, batch, tr.Addrs)

				label := cfg.String()
				if classify {
					label += " classifying"
				}
				if wantHits != gotHits {
					t.Fatalf("%s: hit count diverges: scalar %d batch %d", label, wantHits, gotHits)
				}
				assertCacheEqual(t, label, scalar, batch)
			}
		}
	}
}

// TestAccessBatchEvictionOrder pins the batch kernel's LRU victim choice
// on a hand-built conflict pattern: three lines mapping to one two-way
// set must evict in recency order, identically on both paths.
func TestAccessBatchEvictionOrder(t *testing.T) {
	// 2 sets x 2 ways x 32B lines; A, B, C all map to set 0.
	cfg := Config{SizeBytes: 128, LineBytes: 32, Ways: 2}
	a, b, c := uint64(0), uint64(128), uint64(256)

	scalar := New(cfg)
	batch := New(cfg)

	seq := []uint64{a, b, a, c, b} // c evicts b (LRU), then b evicts a
	for _, addr := range seq {
		scalar.Access(addr)
	}
	batch.AccessBatch(seq)

	assertCacheEqual(t, cfg.String(), scalar, batch)
	for _, probe := range []struct {
		addr uint64
		want bool
	}{{a, false}, {b, true}, {c, true}} {
		if got := batch.Contains(probe.addr); got != probe.want {
			t.Errorf("after batch, Contains(%#x) = %v, want %v", probe.addr, got, probe.want)
		}
	}
}

// TestAccessBatchMixedWithScalar interleaves Access and AccessBatch
// calls on one cache against a purely scalar twin: the batch kernel's
// deferred clock and statistics write-back must leave the cache ready
// for scalar accesses at any boundary.
func TestAccessBatchMixedWithScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := diffTrace(7, 10000)
	cfg := Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4}

	scalar := New(cfg)
	mixed := New(cfg)
	for _, a := range tr.Addrs {
		scalar.Access(a)
	}
	for lo := 0; lo < len(tr.Addrs); {
		if rng.Intn(2) == 0 {
			mixed.Access(tr.Addrs[lo])
			lo++
			continue
		}
		n := min(rng.Intn(129), len(tr.Addrs)-lo)
		mixed.AccessBatch(tr.Addrs[lo : lo+n])
		lo += n
	}
	assertCacheEqual(t, cfg.String(), scalar, mixed)
}

// TestAccessBatchMissObserver verifies the miss-observer callback fires
// in the same order with the same line addresses under batch replay (the
// observer forces the scalar fallback; the contract still holds).
func TestAccessBatchMissObserver(t *testing.T) {
	tr := diffTrace(11, 5000)
	cfg := Config{SizeBytes: 4 << 10, LineBytes: 32, Ways: 2}

	var wantMisses, gotMisses []uint64
	scalar := New(cfg)
	scalar.SetMissObserver(func(la uint64) { wantMisses = append(wantMisses, la) })
	batch := New(cfg)
	batch.SetMissObserver(func(la uint64) { gotMisses = append(gotMisses, la) })

	for _, a := range tr.Addrs {
		scalar.Access(a)
	}
	batch.AccessBatch(tr.Addrs)

	if len(wantMisses) != len(gotMisses) {
		t.Fatalf("miss sequence length diverges: scalar %d batch %d", len(wantMisses), len(gotMisses))
	}
	for i := range wantMisses {
		if wantMisses[i] != gotMisses[i] {
			t.Fatalf("miss %d diverges: scalar %#x batch %#x", i, wantMisses[i], gotMisses[i])
		}
	}
	assertCacheEqual(t, cfg.String(), scalar, batch)
}

// TestStackDistBatchMatchesScalar checks the profiler's batch kernel
// reproduces the scalar profile bit-for-bit — histogram, cold count,
// distinct lines and accesses — across line sizes and batch boundaries.
func TestStackDistBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := diffTrace(5, 30000)
	for _, line := range []int{4, 32, 64, 256} {
		scalar := NewStackDist(line)
		batch := NewStackDist(line)
		for _, a := range tr.Addrs {
			scalar.Access(a)
		}
		for lo := 0; lo < len(tr.Addrs); {
			n := min(rng.Intn(513), len(tr.Addrs)-lo)
			batch.AccessBatch(tr.Addrs[lo : lo+n])
			lo += n
		}
		batch.AccessBatch(nil)
		assertProfileEqual(t, "line "+FormatSize(line), profileOf(scalar), profileOf(batch))
		for _, size := range []int{1 << 10, 16 << 10, 256 << 10} {
			if s, b := scalar.MissRateAt(size), batch.MissRateAt(size); s != b {
				t.Fatalf("line %d: MissRateAt(%d) diverges: scalar %v batch %v", line, size, s, b)
			}
		}
	}
}

// TestGroupSimAccessBatch feeds one grouped-sweep plan per address and a
// second in blocks; every configuration's statistics must match.
func TestGroupSimAccessBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := diffTrace(13, 15000)
	cfgs := randomConfigs(rng, 8)

	scalarPlan, err := planSweep(cfgs, true)
	if err != nil {
		t.Fatal(err)
	}
	batchPlan, _ := planSweep(cfgs, true)

	for _, s := range scalarPlan.sinks() {
		for _, a := range tr.Addrs {
			s.Access(a)
		}
	}
	for _, s := range batchPlan.sinks() {
		bs, ok := s.(batchSink)
		if !ok {
			t.Fatalf("plan sink %T does not support batch replay", s)
		}
		for lo := 0; lo < len(tr.Addrs); lo += 1024 {
			hi := min(lo+1024, len(tr.Addrs))
			bs.AccessBatch(tr.Addrs[lo:hi])
		}
	}

	want, got := scalarPlan.stats(), batchPlan.stats()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%v: grouped stats diverge: scalar %+v batch %+v", cfgs[i], want[i], got[i])
		}
	}
}

// FuzzAccessBatch differentially fuzzes the batch kernel against scalar
// replay: any configuration and batch length the fuzzer draws must agree
// on hit counts, statistics and final cache state. The corpus seeds the
// paper's organizations plus the fallback policies and degenerate batch
// lengths.
func FuzzAccessBatch(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(3), uint8(2), uint8(0), uint16(64))   // 4KB 2-way 32B
	f.Add(uint64(2), uint8(5), uint8(5), uint8(2), uint8(0), uint16(1))    // 32KB 2-way 128B, 1-addr batches
	f.Add(uint64(3), uint8(7), uint8(5), uint8(1), uint8(0), uint16(4096)) // 128KB direct 128B
	f.Add(uint64(4), uint8(4), uint8(4), uint8(0), uint8(0), uint16(100))  // 16KB FA (fallback)
	f.Add(uint64(5), uint8(3), uint8(3), uint8(4), uint8(1), uint16(33))   // 8KB 4-way FIFO (fallback)
	f.Add(uint64(6), uint8(3), uint8(5), uint8(2), uint8(2), uint16(7))    // 8KB 2-way random (fallback)

	f.Fuzz(func(t *testing.T, seed uint64, sizeLog, lineLog, ways, policy uint8, batchLen uint16) {
		cfg := Config{
			SizeBytes: 1 << (10 + sizeLog%8), // 1KB .. 128KB
			LineBytes: 1 << (2 + lineLog%7),  // 4B .. 256B
			Ways:      int(ways % 9),
			Policy:    Replacement(policy % 3),
		}
		if cfg.Validate() != nil {
			return
		}
		n := int(batchLen)%4096 + 1
		rng := rand.New(rand.NewSource(int64(seed)))
		addrs := make([]uint64, 4096)
		base := uint64(0)
		for i := range addrs {
			switch r := rng.Float64(); {
			case r < 0.5:
				addrs[i] = uint64(rng.Intn(2 << 10))
			case r < 0.9:
				addrs[i] = base + uint64(rng.Intn(32<<10))
			default:
				base += uint64(rng.Intn(1 << 18))
				addrs[i] = base
			}
		}

		scalar := New(cfg)
		batch := New(cfg)
		wantHits := 0
		for _, a := range addrs {
			if scalar.Access(a) {
				wantHits++
			}
		}
		gotHits := 0
		for lo := 0; lo < len(addrs); lo += n {
			hi := min(lo+n, len(addrs))
			gotHits += batch.AccessBatch(addrs[lo:hi])
		}
		if wantHits != gotHits {
			t.Fatalf("%v batch %d: hit count diverges: scalar %d batch %d", cfg, n, wantHits, gotHits)
		}
		assertCacheEqual(t, cfg.String(), scalar, batch)
	})
}
