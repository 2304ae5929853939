package cache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"texcache/internal/obs"
)

// AddrStream is a read-only texel address stream consumable in ordered
// blocks. *Trace is the fully materialized implementation; compact
// delta-encoded traces (internal/trace) stream their blocks out of the
// encoded form without ever materializing the whole []uint64. The
// stream-based replay entry points (ReplayStream, SimulateConfigs*Stream)
// accept either.
type AddrStream interface {
	// Len returns the number of addresses in the stream.
	Len() int
	// Cursor returns a fresh iterator positioned at the start of the
	// stream. Cursors are independent: each walks the whole stream, so
	// concurrent consumers each take their own.
	Cursor() Cursor
}

// Cursor iterates an address stream block by block, in order.
type Cursor interface {
	// Next returns the next block of addresses, or nil at end of
	// stream. The returned slice is only valid until the following
	// Next call: decoding cursors reuse their block buffer.
	Next() []uint64
}

// BulkSink is a Sink that can absorb a whole run of addresses at once.
// The tile-parallel merge uses it to move per-tile spans into the frame
// sink without a per-address interface call.
type BulkSink interface {
	Sink
	// AccessBulk appends every address of the run, exactly as len(addrs)
	// Access calls would.
	AccessBulk(addrs []uint64)
}

// batchSink is the replay loops' fast-path contract: a sink that can
// consume a whole ordered block per call, bit-identically to per-address
// Access. Cache (via Sink), StackDist and the grouped simulator satisfy
// it, so every replay entry point pays one interface call per block
// instead of one per address.
type batchSink interface {
	AccessBatch(addrs []uint64)
}

// Trace records a texel address stream in memory so one rendering pass can
// be replayed through many cache configurations — the address stream
// depends on the scene, texture layout and rasterization order but never
// on the cache parameters, so re-rendering per configuration would be
// wasted work.
type Trace struct {
	Addrs []uint64
}

// NewTrace returns a Trace with capacity for sizeHint addresses.
func NewTrace(sizeHint int) *Trace {
	return &Trace{Addrs: make([]uint64, 0, sizeHint)}
}

// traceGrowMin is the smallest capacity Access grows an exhausted trace
// to: one growth step covers the short traces tests record, while real
// renders immediately enter the doubling regime.
const traceGrowMin = 1024

// Access appends one address; Trace satisfies Sink.
//
// Growth doubles explicitly rather than relying on append: append's
// growth factor decays to ~1.25x for large slices, and a full-resolution
// frame records hundreds of millions of addresses, where doubling cuts
// both the number of reallocations and the total bytes copied.
func (t *Trace) Access(addr uint64) {
	if len(t.Addrs) == cap(t.Addrs) {
		t.Grow(1)
	}
	t.Addrs = append(t.Addrs, addr)
}

// Grow ensures capacity for at least n more addresses, at minimum
// doubling the current capacity so repeated growth stays amortized O(1)
// with a bounded copy volume. Bulk producers (the tile merge, trace
// deserialization) call it once with their known size.
func (t *Trace) Grow(n int) {
	need := len(t.Addrs) + n
	if need <= cap(t.Addrs) {
		return
	}
	newCap := 2 * cap(t.Addrs)
	if newCap < traceGrowMin {
		newCap = traceGrowMin
	}
	if newCap < need {
		newCap = need
	}
	a := make([]uint64, len(t.Addrs), newCap)
	copy(a, t.Addrs)
	t.Addrs = a
}

// AccessBulk appends a whole run of addresses; Trace satisfies BulkSink.
// Grow doubles, keeping large-frame merges off append's decaying growth
// factor.
func (t *Trace) AccessBulk(addrs []uint64) {
	t.Grow(len(addrs))
	t.Addrs = append(t.Addrs, addrs...)
}

// Len returns the number of recorded accesses.
func (t *Trace) Len() int { return len(t.Addrs) }

// Cursor returns an iterator over the materialized addresses; the blocks
// are views into Addrs, so iteration copies nothing.
func (t *Trace) Cursor() Cursor { return &traceCursor{addrs: t.Addrs} }

// replayChunkLen is the number of addresses a trace cursor hands out per
// block: large enough that per-block overhead vanishes against the ~ns
// cost of one Access, small enough that cancellation stays prompt.
const replayChunkLen = 1 << 14

// traceCursor hands out replayChunkLen-sized views of a trace.
type traceCursor struct {
	addrs []uint64
	pos   int
}

func (c *traceCursor) Next() []uint64 {
	if c.pos >= len(c.addrs) {
		return nil
	}
	hi := min(c.pos+replayChunkLen, len(c.addrs))
	b := c.addrs[c.pos:hi]
	c.pos = hi
	return b
}

// Replay feeds the whole trace to each sink in turn. *StackDist is a Sink;
// use Cache.Sink to replay into a cache simulator.
//
// Metrics are flushed in bulk after the pass (replay.addresses,
// replay.pass): the per-address loops carry no instrumentation, and with
// no registry attached the whole accounting reduces to one nil check.
func (t *Trace) Replay(sinks ...Sink) {
	reg := obs.Default()
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	for _, s := range sinks {
		if bs, ok := s.(batchSink); ok {
			// Batch dispatch: the whole trace in one call keeps the
			// sink's hot loop free of interface-call overhead.
			bs.AccessBatch(t.Addrs)
			continue
		}
		for _, a := range t.Addrs {
			s.Access(a)
		}
	}
	if reg != nil {
		flushReplay(reg, start, uint64(t.Len())*uint64(len(sinks)), "pass")
	}
}

// flushReplay records one finished replay pass: the address volume (the
// numerator of addresses/sec) and the wall time under the given timer.
func flushReplay(reg *obs.Registry, start time.Time, addrs uint64, timer string) {
	rep := reg.Sub("replay")
	rep.Counter("addresses").Add(addrs)
	rep.Timer(timer).ObserveSince(start)
}

// SimulateConfigs replays the trace through a fresh classifying cache per
// configuration and returns the resulting statistics, index-aligned with
// cfgs.
func (t *Trace) SimulateConfigs(cfgs []Config) []Stats {
	reg := obs.Default()
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	out := make([]Stats, len(cfgs))
	for i, cfg := range cfgs {
		c := NewClassifying(cfg)
		c.AccessBatch(t.Addrs)
		out[i] = c.Stats()
	}
	if reg != nil {
		flushReplay(reg, start, uint64(t.Len())*uint64(len(cfgs)), "pass")
	}
	return out
}

// traceMagic begins the on-disk trace format: "TXTR" then version 1.
var traceMagic = [8]byte{'T', 'X', 'T', 'R', 1, 0, 0, 0}

// WriteTo serializes the trace in a simple little-endian binary format
// (magic, count, delta-encoded varint addresses). It implements
// io.WriterTo.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	wr := func(p []byte) error {
		m, err := bw.Write(p)
		n += int64(m)
		return err
	}
	if err := wr(traceMagic[:]); err != nil {
		return n, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(t.Addrs)))
	if err := wr(hdr[:]); err != nil {
		return n, err
	}
	var buf [binary.MaxVarintLen64]byte
	var prev uint64
	for _, a := range t.Addrs {
		// Zig-zag delta encoding: texture accesses are local, so deltas
		// are short and the trace compresses several-fold.
		delta := int64(a) - int64(prev)
		prev = a
		k := binary.PutUvarint(buf[:], zigzag(delta))
		if err := wr(buf[:k]); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadTrace deserializes a trace written by WriteTo.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("cache: reading trace magic: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("cache: bad trace magic %q", magic[:4])
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("cache: reading trace length: %w", err)
	}
	count := binary.LittleEndian.Uint64(hdr[:])
	const maxTraceLen = 1 << 32
	if count > maxTraceLen {
		return nil, fmt.Errorf("cache: trace length %d exceeds limit", count)
	}
	// Cap the preallocation: the header is untrusted, and a hostile
	// count must not allocate gigabytes before the body fails to parse.
	hint := int(count)
	if hint > 1<<20 {
		hint = 1 << 20
	}
	t := NewTrace(hint)
	var prev int64
	for i := uint64(0); i < count; i++ {
		u, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("cache: reading trace entry %d: %w", i, err)
		}
		prev += unzigzag(u)
		t.Access(uint64(prev))
	}
	return t, nil
}

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
