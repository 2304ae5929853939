package cache

import (
	"context"
	"sync"
	"time"

	"texcache/internal/obs"
)

// Stream-based replay: both replay entry points in this file consume an
// AddrStream instead of a materialized *Trace, so a compact delta-encoded
// trace (internal/trace) replays block by block straight out of its
// encoded form, and a *Trace replays through zero-copy views. The
// statistics any sink accumulates are bit-identical regardless of the
// stream's representation, because every cursor yields the exact
// recorded address order.

// ReplayStream feeds the whole stream to every sink, as Replay does for
// a materialized trace (to which it defers when s is a *Trace). Any
// other stream is decoded once: each block goes to every sink before
// the next is decoded. Sinks are independent, so interleaving them
// block by block leaves each with exactly the state a whole-stream pass
// of its own would.
func ReplayStream(s AddrStream, sinks ...Sink) {
	if t, ok := s.(*Trace); ok {
		t.Replay(sinks...)
		return
	}
	reg := obs.Default()
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	if len(sinks) > 0 {
		cur := s.Cursor()
		for block := cur.Next(); block != nil; block = cur.Next() {
			for _, sink := range sinks {
				feedBlock(sink, block)
			}
		}
	}
	if reg != nil {
		flushReplay(reg, start, uint64(s.Len())*uint64(len(sinks)), "pass")
	}
}

// feedBlock hands one block to one sink. Batch-capable sinks (caches,
// the profilers, the grouped simulator) consume it whole, so their hot
// loops avoid the per-address interface call, as in Replay.
func feedBlock(sink Sink, block []uint64) {
	if bs, ok := sink.(batchSink); ok {
		bs.AccessBatch(block)
		return
	}
	for _, a := range block {
		sink.Access(a)
	}
}

// ReplayStreamConcurrent feeds the whole stream to every sink
// concurrently, one sink per goroutine. Each sink walks its own cursor:
// a *Trace hands every sink read-only views of its addresses (no copy),
// and any other stream is decoded independently per sink, so no decoded
// block ever crosses a goroutine boundary. Replay order within each sink
// is the serial order, so every deterministic sink ends bit-identical
// to Replay.
//
// On cancellation the pass stops between blocks and the context's error
// is returned; the sinks are then partially updated and should be
// discarded.
func ReplayStreamConcurrent(ctx context.Context, s AddrStream, sinks ...Sink) error {
	if len(sinks) == 0 {
		return ctx.Err()
	}
	reg := obs.Default()
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	var wg sync.WaitGroup
	done := ctx.Done()
	for _, sink := range sinks {
		wg.Add(1)
		go func(sink Sink) {
			defer wg.Done()
			cur := s.Cursor()
			for block := cur.Next(); block != nil; block = cur.Next() {
				select {
				case <-done:
					return
				default:
				}
				feedBlock(sink, block)
			}
		}(sink)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if reg != nil {
		flushReplay(reg, start, uint64(s.Len())*uint64(len(sinks)), "concurrent_pass")
	}
	return nil
}
