package cache

import (
	"context"
	"testing"

	"texcache/internal/obs"
)

// blindStream wraps a Trace behind the bare AddrStream interface so the
// stream replay paths cannot take their *Trace fast paths — the tests
// below exercise the generic per-cursor machinery a compact encoded
// trace would use.
type blindStream struct{ t *Trace }

func (b blindStream) Len() int       { return b.t.Len() }
func (b blindStream) Cursor() Cursor { return b.t.Cursor() }

// syntheticTrace builds a stream with texture-like locality: short runs
// of nearby addresses with periodic jumps between regions.
func syntheticTrace(n int) *Trace {
	t := NewTrace(n)
	addr := uint64(1 << 20)
	for i := 0; i < n; i++ {
		switch {
		case i%97 == 0:
			addr = uint64((i * 2654435761) % (1 << 24))
		case i%7 == 0:
			addr += 4096
		default:
			addr += 4
		}
		t.Access(addr)
	}
	return t
}

func TestTraceCursorYieldsExactStream(t *testing.T) {
	for _, n := range []int{0, 1, replayChunkLen - 1, replayChunkLen, replayChunkLen + 1, 3*replayChunkLen + 17} {
		tr := syntheticTrace(n)
		var got []uint64
		cur := tr.Cursor()
		for block := cur.Next(); block != nil; block = cur.Next() {
			if len(block) == 0 {
				t.Fatalf("n=%d: cursor yielded an empty non-nil block", n)
			}
			got = append(got, block...)
		}
		if len(got) != len(tr.Addrs) {
			t.Fatalf("n=%d: cursor yielded %d addresses, want %d", n, len(got), len(tr.Addrs))
		}
		for i := range got {
			if got[i] != tr.Addrs[i] {
				t.Fatalf("n=%d: address %d = %d, want %d", n, i, got[i], tr.Addrs[i])
			}
		}
	}
}

func TestTraceAccessBulkMatchesAccess(t *testing.T) {
	src := syntheticTrace(5000)
	var one, bulk Trace
	for _, a := range src.Addrs {
		one.Access(a)
	}
	for lo := 0; lo < len(src.Addrs); lo += 513 {
		bulk.AccessBulk(src.Addrs[lo:min(lo+513, len(src.Addrs))])
	}
	if len(one.Addrs) != len(bulk.Addrs) {
		t.Fatalf("bulk recorded %d addresses, Access recorded %d", len(bulk.Addrs), len(one.Addrs))
	}
	for i := range one.Addrs {
		if one.Addrs[i] != bulk.Addrs[i] {
			t.Fatalf("address %d: bulk %d != serial %d", i, bulk.Addrs[i], one.Addrs[i])
		}
	}
}

// TestReplayStreamMatchesReplay pins the core property: replaying the
// same stream through the generic cursor path produces sinks
// bit-identical to materialized Replay, for caches, the stack profiler
// and the grouped simulator alike.
func TestReplayStreamMatchesReplay(t *testing.T) {
	tr := syntheticTrace(100000)
	cfg := Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2}

	want := NewClassifying(cfg)
	tr.Replay(want.Sink())
	wantSD := NewStackDist(64)
	tr.Replay(wantSD)

	got := NewClassifying(cfg)
	gotSD := NewStackDist(64)
	ReplayStream(blindStream{tr}, got.Sink(), gotSD)

	if got.Stats() != want.Stats() {
		t.Errorf("stream stats %+v != materialized %+v", got.Stats(), want.Stats())
	}
	if gotSD.DistinctLines() != wantSD.DistinctLines() || gotSD.ColdMisses() != wantSD.ColdMisses() {
		t.Errorf("stream stack profile diverged: %d/%d lines, %d/%d cold",
			gotSD.DistinctLines(), wantSD.DistinctLines(), gotSD.ColdMisses(), wantSD.ColdMisses())
	}
}

// decodingStream stands in for an encoded trace: every cursor copies
// each block into a buffer it reuses, as a decoder would, and the
// stream counts the cursors and blocks it hands out.
type decodingStream struct {
	t               *Trace
	cursors, blocks int
}

func (d *decodingStream) Len() int { return d.t.Len() }
func (d *decodingStream) Cursor() Cursor {
	d.cursors++
	return &decodingCursor{d: d, cur: d.t.Cursor()}
}

type decodingCursor struct {
	d   *decodingStream
	cur Cursor
	buf []uint64
}

func (c *decodingCursor) Next() []uint64 {
	b := c.cur.Next()
	if b == nil {
		return nil
	}
	c.d.blocks++
	c.buf = append(c.buf[:0], b...)
	return c.buf
}

// TestReplayStreamDecodesOnce checks that a multi-sink ReplayStream
// decodes the stream once, block by block, while every sink — batch
// capable or not — still ends bit-identical to a materialized replay and
// the address volume still counts every sink.
func TestReplayStreamDecodesOnce(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(reg)
	defer obs.Detach()

	tr := syntheticTrace(3*replayChunkLen + 17)
	cfg := Config{SizeBytes: 8 << 10, LineBytes: 32, Ways: 2}
	want := New(cfg)
	wantSD := NewStackDist(64)
	var wantRec Trace
	tr.Replay(want.Sink(), wantSD, &wantRec)

	s := &decodingStream{t: tr}
	got := New(cfg)
	gotSD := NewStackDist(64)
	var gotRec Trace // a plain Sink: takes the per-address path
	before := reg.Sub("replay").Counter("addresses").Value()
	ReplayStream(s, got.Sink(), gotSD, &gotRec)

	if s.cursors != 1 || s.blocks != 4 {
		t.Errorf("ReplayStream took %d cursors and %d blocks, want 1 and 4", s.cursors, s.blocks)
	}
	if got.Stats() != want.Stats() {
		t.Errorf("cache stats %+v, want %+v", got.Stats(), want.Stats())
	}
	assertProfileEqual(t, "stack profile", profileOf(wantSD), profileOf(gotSD))
	if len(gotRec.Addrs) != len(wantRec.Addrs) {
		t.Fatalf("recorded %d addresses, want %d", len(gotRec.Addrs), len(wantRec.Addrs))
	}
	for i := range wantRec.Addrs {
		if gotRec.Addrs[i] != wantRec.Addrs[i] {
			t.Fatalf("recorded address %d = %d, want %d", i, gotRec.Addrs[i], wantRec.Addrs[i])
		}
	}
	if n := reg.Sub("replay").Counter("addresses").Value() - before; n != 3*uint64(tr.Len()) {
		t.Errorf("replay.addresses grew by %d, want %d (len x sinks)", n, 3*tr.Len())
	}
}

func TestReplayStreamConcurrentMatchesSerial(t *testing.T) {
	tr := syntheticTrace(200000)
	cfgs := []Config{
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 1},
		{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2},
		{SizeBytes: 64 << 10, LineBytes: 128, Ways: 0},
		{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4, Policy: FIFO},
	}
	ctx := context.Background()
	want := tr.SimulateConfigs(cfgs)

	got, err := SimulateConfigsStream(ctx, blindStream{tr}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if got[i] != want[i] {
			t.Errorf("%+v: stream %+v != serial %+v", cfgs[i], got[i], want[i])
		}
	}

	grouped, err := SimulateConfigsGroupedStream(ctx, blindStream{tr}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if grouped[i] != want[i] {
			t.Errorf("%+v: grouped stream %+v != serial %+v", cfgs[i], grouped[i], want[i])
		}
	}

	rates, err := MissRatesStream(ctx, blindStream{tr}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	gRates, err := MissRatesGroupedStream(ctx, blindStream{tr}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if rates[i] != want[i].MissRate() || gRates[i] != want[i].MissRate() {
			t.Errorf("%+v: stream rates %v/%v != serial %v", cfgs[i], rates[i], gRates[i], want[i].MissRate())
		}
	}
}

func TestReplayStreamConcurrentCancellation(t *testing.T) {
	tr := syntheticTrace(200000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(Config{SizeBytes: 4 << 10, LineBytes: 64, Ways: 2})
	if err := ReplayStreamConcurrent(ctx, blindStream{tr}, c.Sink()); err == nil {
		t.Error("cancelled stream replay returned nil error")
	}
	if err := ReplayStreamConcurrent(ctx, blindStream{tr}); err == nil {
		t.Error("cancelled empty-sink stream replay returned nil error")
	}
}

// TestReplayStreamMetrics verifies the generic stream paths account
// their address volume under the same replay.* metrics as the
// materialized paths.
func TestReplayStreamMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(reg)
	defer obs.Detach()

	tr := syntheticTrace(50000)
	c := New(Config{SizeBytes: 4 << 10, LineBytes: 64, Ways: 2})
	ReplayStream(blindStream{tr}, c.Sink())
	if got := reg.Sub("replay").Counter("addresses").Value(); got != uint64(tr.Len()) {
		t.Errorf("replay.addresses = %d after ReplayStream, want %d", got, tr.Len())
	}
	c2 := New(Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2})
	if err := ReplayStreamConcurrent(context.Background(), blindStream{tr}, c.Sink(), c2.Sink()); err != nil {
		t.Fatal(err)
	}
	want := uint64(tr.Len()) + 2*uint64(tr.Len())
	if got := reg.Sub("replay").Counter("addresses").Value(); got != want {
		t.Errorf("replay.addresses = %d after concurrent stream pass, want %d", got, want)
	}
	if n := reg.Sub("replay").Timer("concurrent_pass").Count(); n != 1 {
		t.Errorf("replay.concurrent_pass count = %d, want 1", n)
	}
}
