package cache

import (
	"math/rand"
	"testing"
)

func TestStackDistSimpleSequence(t *testing.T) {
	s := NewStackDist(4) // line == one address unit of 4 bytes
	// Access lines A B C A: A's re-access has stack distance 3.
	s.Access(0) // A cold
	s.Access(4) // B cold
	s.Access(8) // C cold
	s.Access(0) // A, distance 3
	if s.ColdMisses() != 3 {
		t.Errorf("cold = %d, want 3", s.ColdMisses())
	}
	if s.Accesses() != 4 {
		t.Errorf("accesses = %d, want 4", s.Accesses())
	}
	// Capacity 3 lines: the re-access hits. Misses = 3 cold.
	if got := s.MissesAt(3); got != 3 {
		t.Errorf("MissesAt(3) = %d, want 3", got)
	}
	// Capacity 2 lines: the re-access misses too.
	if got := s.MissesAt(2); got != 4 {
		t.Errorf("MissesAt(2) = %d, want 4", got)
	}
}

func TestStackDistMRUHit(t *testing.T) {
	s := NewStackDist(4)
	s.Access(0)
	s.Access(0)
	s.Access(0)
	// Distance-1 re-accesses hit in any cache with >= 1 line.
	if got := s.MissesAt(1); got != 1 {
		t.Errorf("MissesAt(1) = %d, want 1", got)
	}
}

func TestStackDistMatchesDirectSimulation(t *testing.T) {
	// Property: for random traces, the profiler's miss count at capacity C
	// equals a directly simulated fully-associative LRU cache of C lines.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 2000 + rng.Intn(3000)
		addrs := make([]uint64, n)
		for i := range addrs {
			switch rng.Intn(3) {
			case 0:
				addrs[i] = uint64(rng.Intn(1 << 12))
			case 1: // sequential run
				addrs[i] = uint64(i*8) % (1 << 11)
			default: // revisit a recent address
				if i > 10 {
					addrs[i] = addrs[i-1-rng.Intn(10)]
				}
			}
		}
		const lineB = 32
		s := NewStackDist(lineB)
		for _, a := range addrs {
			s.Access(a)
		}
		for _, lines := range []int{1, 2, 4, 8, 16, 64, 256} {
			c := New(Config{SizeBytes: lines * lineB, LineBytes: lineB, Ways: 0})
			for _, a := range addrs {
				c.Access(a)
			}
			want := c.Stats().Misses
			if got := s.MissesAt(lines); got != want {
				t.Fatalf("trial %d lines %d: stackdist misses %d, direct sim %d",
					trial, lines, got, want)
			}
		}
	}
}

func TestStackDistCurve(t *testing.T) {
	s := NewStackDist(32)
	for i := 0; i < 10000; i++ {
		s.Access(uint64(i*4) % 4096)
	}
	sizes := []int{128, 512, 4096}
	curve := s.Curve(sizes)
	if len(curve) != 3 {
		t.Fatalf("curve has %d points", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Errorf("curve not monotone: %v", curve)
		}
	}
	// 4KB cache holds the whole 4KB working set: only cold misses remain.
	wantCold := float64(4096/32) / 10000
	if curve[2] != wantCold {
		t.Errorf("full-size miss rate = %v, want %v", curve[2], wantCold)
	}
}

func TestStackDistDistinctLines(t *testing.T) {
	s := NewStackDist(64)
	for a := uint64(0); a < 1024; a += 4 {
		s.Access(a)
	}
	if got := s.DistinctLines(); got != 16 {
		t.Errorf("DistinctLines = %d, want 16", got)
	}
	if s.LineBytes() != 64 {
		t.Errorf("LineBytes = %d", s.LineBytes())
	}
}

func TestStackDistInvalidLine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad line size")
		}
	}()
	NewStackDist(3)
}
