package cache

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The concurrent replay tests run every behaviour over both stream
// shapes ReplayStreamConcurrent serves: a materialized *Trace (zero-copy
// views) and an opaque AddrStream (a cursor per sink, as a compact
// encoded trace replays).

// synthTrace builds a deterministic trace with enough structure to
// exercise hits, misses and conflicts across a range of configs.
func synthTrace(n int) *Trace {
	t := NewTrace(n)
	state := uint64(0x243F6A8885A308D3)
	for i := 0; i < n; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		// Mix streaming and reuse: half the accesses walk forward, half
		// revisit a small hot region, all 4-byte aligned.
		var a uint64
		if i%2 == 0 {
			a = uint64(i) * 4
		} else {
			a = (state % (1 << 12)) &^ 3
		}
		t.Access(a)
	}
	return t
}

// sweepConfigs is the shared multi-config sweep the equivalence tests use.
func sweepConfigs() []Config {
	return []Config{
		{SizeBytes: 1 << 10, LineBytes: 32, Ways: 1},
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 2},
		{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2},
		{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4},
		{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2},
		{SizeBytes: 32 << 10, LineBytes: 128, Ways: 0},
		{SizeBytes: 64 << 10, LineBytes: 128, Ways: 8},
		{SizeBytes: 128 << 10, LineBytes: 256, Ways: 1},
	}
}

// namedStream is one stream shape under test.
type namedStream struct {
	name string
	s    AddrStream
}

// bothStreams presents tr as a *Trace and behind the bare AddrStream
// interface.
func bothStreams(tr *Trace) []namedStream {
	return []namedStream{{"trace", tr}, {"stream", blindStream{tr}}}
}

// chunkedStream hands out its trace in fixed n-address blocks, forcing
// many-block schedules on short traces.
type chunkedStream struct {
	t *Trace
	n int
}

func (c chunkedStream) Len() int       { return c.t.Len() }
func (c chunkedStream) Cursor() Cursor { return &chunkedCursor{addrs: c.t.Addrs, n: c.n} }

type chunkedCursor struct {
	addrs []uint64
	n     int
}

func (c *chunkedCursor) Next() []uint64 {
	if len(c.addrs) == 0 {
		return nil
	}
	b := c.addrs[:min(c.n, len(c.addrs))]
	c.addrs = c.addrs[len(b):]
	return b
}

// classifyingSinks builds one fresh classifying cache per configuration.
func classifyingSinks(t *testing.T, cfgs []Config) ([]*Cache, []Sink) {
	t.Helper()
	caches := make([]*Cache, len(cfgs))
	sinks := make([]Sink, len(cfgs))
	for i, cfg := range cfgs {
		c, err := TryNewClassifying(cfg)
		if err != nil {
			t.Fatal(err)
		}
		caches[i], sinks[i] = c, c.Sink()
	}
	return caches, sinks
}

// TestSimulateConfigsConcurrentMatchesSerial feeds one classifying cache
// per configuration in a single concurrent pass and requires statistics
// identical to the serial per-configuration oracle.
func TestSimulateConfigsConcurrentMatchesSerial(t *testing.T) {
	tr := synthTrace(50_000)
	cfgs := sweepConfigs()
	want := tr.SimulateConfigs(cfgs)
	for _, ns := range bothStreams(tr) {
		caches, sinks := classifyingSinks(t, cfgs)
		if err := ReplayStreamConcurrent(context.Background(), ns.s, sinks...); err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if got := caches[i].Stats(); got != want[i] {
				t.Errorf("%s %v: concurrent %+v != serial %+v", ns.name, cfgs[i], got, want[i])
			}
		}
	}
}

func TestReplayConcurrentSmallChunks(t *testing.T) {
	// Many blocks per sink shake out ordering bugs: 7-address blocks on
	// an opaque stream, and a trace several cursor blocks long.
	cfgs := sweepConfigs()[:4]
	short := synthTrace(10_000)
	long := synthTrace(3*replayChunkLen + 17)
	for _, tc := range []struct {
		name string
		tr   *Trace
		s    AddrStream
	}{
		{"7-address blocks", short, chunkedStream{short, 7}},
		{"multi-block trace", long, long},
	} {
		want := tc.tr.SimulateConfigs(cfgs)
		caches, sinks := classifyingSinks(t, cfgs)
		if err := ReplayStreamConcurrent(context.Background(), tc.s, sinks...); err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if caches[i].Stats() != want[i] {
				t.Errorf("%s %v: chunked %+v != serial %+v", tc.name, cfgs[i], caches[i].Stats(), want[i])
			}
		}
	}
}

func TestReplayConcurrentStackDist(t *testing.T) {
	tr := synthTrace(20_000)
	serial := NewStackDist(32)
	tr.Replay(serial)
	for _, ns := range bothStreams(tr) {
		concurrent := NewStackDist(32)
		if err := ReplayStreamConcurrent(context.Background(), ns.s, concurrent); err != nil {
			t.Fatal(err)
		}
		assertProfileEqual(t, ns.name+" stack profile", profileOf(serial), profileOf(concurrent))
		for _, sz := range []int{1 << 10, 4 << 10, 16 << 10} {
			if got, want := concurrent.MissRateAt(sz), serial.MissRateAt(sz); got != want {
				t.Errorf("%s: stack-distance miss rate at %d: concurrent %v != serial %v", ns.name, sz, got, want)
			}
		}
	}
}

func TestReplayConcurrentEmptyAndNoSinks(t *testing.T) {
	for _, ns := range append(bothStreams(NewTrace(0)), bothStreams(synthTrace(100))...) {
		if err := ReplayStreamConcurrent(context.Background(), ns.s); err != nil {
			t.Errorf("%s of %d, no sinks: %v", ns.name, ns.s.Len(), err)
		}
	}
	for _, ns := range bothStreams(NewTrace(0)) {
		c := New(Config{SizeBytes: 1 << 10, LineBytes: 32, Ways: 1})
		if err := ReplayStreamConcurrent(context.Background(), ns.s, c.Sink()); err != nil {
			t.Errorf("%s: empty trace: %v", ns.name, err)
		}
		if c.Stats().Accesses != 0 {
			t.Errorf("%s: empty trace produced accesses: %+v", ns.name, c.Stats())
		}
	}
}

func TestReplayConcurrentCancellation(t *testing.T) {
	tr := synthTrace(100_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the pass must stop promptly
	for _, ns := range bothStreams(tr) {
		done := make(chan error, 1)
		go func() {
			c := New(Config{SizeBytes: 4 << 10, LineBytes: 32, Ways: 2})
			done <- ReplayStreamConcurrent(ctx, ns.s, c.Sink())
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: cancelled replay returned %v, want context.Canceled", ns.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: cancelled replay did not return promptly", ns.name)
		}
	}
}

// TestSimulateConfigsConcurrentInvalidConfig: both sweep forms reject an
// invalid configuration with *ConfigError, whatever the stream.
func TestSimulateConfigsConcurrentInvalidConfig(t *testing.T) {
	tr := synthTrace(100)
	for _, ns := range bothStreams(tr) {
		_, err := Sweep(context.Background(), ns.s,
			[]Config{{SizeBytes: 3000, LineBytes: 32, Ways: 1}})
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: Sweep invalid config returned %v, want *ConfigError", ns.name, err)
		}
		if _, err := SweepMissRates(context.Background(), ns.s,
			[]Config{{SizeBytes: 1 << 10, LineBytes: 3, Ways: 1}}); !errors.As(err, &ce) {
			t.Errorf("%s: SweepMissRates invalid config returned %v, want *ConfigError", ns.name, err)
		}
	}
}

func TestConfigErrorFromEveryConstructor(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 32, Ways: 1},            // zero size
		{SizeBytes: 3 << 10, LineBytes: 32, Ways: 1},      // non-power-of-two size
		{SizeBytes: 1 << 10, LineBytes: 48, Ways: 1},      // non-power-of-two line
		{SizeBytes: 1 << 10, LineBytes: 32, Ways: 64},     // ways > lines
		{SizeBytes: 256, LineBytes: 512, Ways: 1},         // size < line
		{SizeBytes: 1 << 10, LineBytes: 32, Ways: -1},     // negative ways
		{SizeBytes: 1 << 10, LineBytes: 32, Policy: FIFO}, // FIFO needs sets
	}
	for _, cfg := range bad {
		var ce *ConfigError
		if err := cfg.Validate(); !errors.As(err, &ce) {
			t.Errorf("Validate(%+v) = %v, want *ConfigError", cfg, err)
			continue
		}
		if _, err := TryNew(cfg); !errors.As(err, &ce) {
			t.Errorf("TryNew(%+v) = %v, want *ConfigError", cfg, err)
		}
		if _, err := TryNewClassifying(cfg); !errors.As(err, &ce) {
			t.Errorf("TryNewClassifying(%+v) = %v, want *ConfigError", cfg, err)
		}
		if _, err := NewSectored(cfg, 32); !errors.As(err, &ce) {
			t.Errorf("NewSectored(%+v) = %v, want *ConfigError", cfg, err)
		}
	}
	// Sectored-specific rejections are ConfigErrors too.
	good := Config{SizeBytes: 4 << 10, LineBytes: 128, Ways: 2}
	var ce *ConfigError
	if _, err := NewSectored(good, 3); !errors.As(err, &ce) {
		t.Errorf("NewSectored bad sector = %v, want *ConfigError", err)
	}
	if _, err := NewSectored(Config{SizeBytes: 4 << 10, LineBytes: 128, Ways: 0}, 32); !errors.As(err, &ce) {
		t.Errorf("NewSectored fully-assoc = %v, want *ConfigError", err)
	}
}
