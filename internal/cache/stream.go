package cache

import (
	"context"
	"sync"
	"time"

	"texcache/internal/obs"
)

// Stream-based replay: every replay entry point in this file consumes an
// AddrStream instead of a materialized *Trace, so a compact delta-encoded
// trace (internal/trace) replays block by block straight out of its
// encoded form. *Trace arguments take the existing zero-copy paths — the
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

// replayCursor drains one cursor into one sink.
func replayCursor(cur Cursor, sink Sink) {
	for block := cur.Next(); block != nil; block = cur.Next() {
		feedBlock(sink, block)
	}
}

// ReplayStreamConcurrent feeds the whole stream to every sink
// concurrently, one sink per goroutine. A materialized *Trace takes the
// shared-chunk channel path of ReplayConcurrent; any other stream gives
// each sink its own cursor, so sinks decode independently and no decoded
// block ever crosses a goroutine boundary.
//
// On cancellation the pass stops between blocks and the context's error
// is returned; the sinks are then partially updated and should be
// discarded.
func ReplayStreamConcurrent(ctx context.Context, s AddrStream, sinks ...Sink) error {
	if t, ok := s.(*Trace); ok {
		return t.ReplayConcurrent(ctx, sinks...)
	}
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
			if done == nil {
				replayCursor(cur, sink)
				return
			}
			bs, _ := sink.(batchSink)
			for block := cur.Next(); block != nil; block = cur.Next() {
				select {
				case <-done:
					return
				default:
				}
				if bs != nil {
					bs.AccessBatch(block)
					continue
				}
				for _, a := range block {
					sink.Access(a)
				}
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

// SimulateConfigsStream is SimulateConfigsConcurrent over any address
// stream: one fresh classifying cache per configuration, all fed in a
// single concurrent pass, statistics index-aligned with cfgs.
func SimulateConfigsStream(ctx context.Context, s AddrStream, cfgs []Config) ([]Stats, error) {
	caches := make([]*Cache, len(cfgs))
	sinks := make([]Sink, len(cfgs))
	for i, cfg := range cfgs {
		c, err := TryNewClassifying(cfg)
		if err != nil {
			return nil, err
		}
		caches[i] = c
		sinks[i] = c.Sink()
	}
	if err := ReplayStreamConcurrent(ctx, s, sinks...); err != nil {
		return nil, err
	}
	out := make([]Stats, len(cfgs))
	for i, c := range caches {
		out[i] = c.Stats()
	}
	return out, nil
}

// MissRatesStream is MissRatesConcurrent over any address stream: the
// miss rate of one plain cache per configuration from a single
// concurrent pass, index-aligned with cfgs.
func MissRatesStream(ctx context.Context, s AddrStream, cfgs []Config) ([]float64, error) {
	caches := make([]*Cache, len(cfgs))
	sinks := make([]Sink, len(cfgs))
	for i, cfg := range cfgs {
		c, err := TryNew(cfg)
		if err != nil {
			return nil, err
		}
		caches[i] = c
		sinks[i] = c.Sink()
	}
	if err := ReplayStreamConcurrent(ctx, s, sinks...); err != nil {
		return nil, err
	}
	out := make([]float64, len(cfgs))
	for i, c := range caches {
		out[i] = c.Stats().MissRate()
	}
	return out, nil
}

// SimulateConfigsGroupedStream is SimulateConfigsGrouped over any
// address stream: per-configuration statistics from one grouped stack
// simulation per distinct line size, bit-identical to per-configuration
// replay.
func SimulateConfigsGroupedStream(ctx context.Context, s AddrStream, cfgs []Config) ([]Stats, error) {
	p, err := planSweep(cfgs, true)
	if err != nil {
		return nil, err
	}
	if err := ReplayStreamConcurrent(ctx, s, p.sinks()...); err != nil {
		return nil, err
	}
	return p.stats(), nil
}

// MissRatesGroupedStream is MissRatesGrouped over any address stream.
func MissRatesGroupedStream(ctx context.Context, s AddrStream, cfgs []Config) ([]float64, error) {
	p, err := planSweep(cfgs, false)
	if err != nil {
		return nil, err
	}
	if err := ReplayStreamConcurrent(ctx, s, p.sinks()...); err != nil {
		return nil, err
	}
	stats := p.stats()
	out := make([]float64, len(stats))
	for i, st := range stats {
		out[i] = st.MissRate()
	}
	return out, nil
}
