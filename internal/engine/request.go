// Request-centric entry point: RunRequest executes one api.ExperimentRequest,
// the single description of a unit of work every binary and the library
// facade construct. Experiment-kind requests route through the batch
// scheduler (Run); sweep-kind requests render their (scene, scale,
// layout, traversal) stream through the same trace provider — so
// identical sweeps coalesce onto one render — and replay the requested
// cache configurations against it.
package engine

import (
	"context"
	"time"

	"texcache/internal/api"
	"texcache/internal/arch"
	"texcache/internal/cache"
	"texcache/internal/exp"
	"texcache/internal/obs"
	"texcache/internal/report"
)

// SweepID is the Result.ID (and report table id) of sweep-kind requests.
const SweepID = "sweep"

// ArchID is the Result.ID (and report table id) of architecture-kind
// requests.
const ArchID = "architecture"

// RunRequest executes req, normalized and validated, and streams results
// exactly as Run does. The request must already have passed
// api.Validate; RunRequest re-validates cheaply and fails fast with the
// typed *api.Error otherwise.
func (e *Engine) RunRequest(ctx context.Context, req api.ExperimentRequest) (<-chan Result, error) {
	req = req.Normalized()
	if err := api.Validate(req); err != nil {
		return nil, err
	}
	switch req.Kind() {
	case api.KindGrid:
		return e.runGrid(ctx, req)
	case api.KindArchitecture:
		return e.runArchitecture(ctx, req)
	case api.KindSweep:
		return e.runSweep(ctx, req)
	}
	return e.Run(ctx, req.Experiments, req.ExpConfig())
}

// sweepColumns lays out the sweep result table: one row per requested
// cache configuration with its classified statistics.
func sweepColumns() []report.Column {
	return []report.Column{
		{Name: "Configuration", Head: "%-36s", Cell: "%-36s"},
		{Name: "Miss rate", Head: "%10s", Cell: "%9.3f%%"},
		{Name: "Accesses", Head: "%12s", Cell: "%12d"},
		{Name: "Misses", Head: "%12s", Cell: "%12d"},
		{Name: "Cold", Head: "%10s", Cell: "%10d"},
		{Name: "Capacity", Head: "%10s", Cell: "%10d"},
		{Name: "Conflict", Head: "%10s", Cell: "%10d"},
	}
}

// runSweep renders the request's texel stream through the engine's trace
// provider and replays the configuration set, emitting one result whose
// recording is a single classified-statistics table. The provider's
// single-flight keying is what coalesces identical concurrent sweeps:
// any number of requests for the same (scene, scale, layout, traversal)
// cost one render.
func (e *Engine) runSweep(ctx context.Context, req api.ExperimentRequest) (<-chan Result, error) {
	cfg := req.ExpConfig()
	prov, err := e.traces()
	if err != nil {
		return nil, err
	}
	out := make(chan Result, 1)
	go func() {
		defer close(out)
		r := Result{Index: 0, ID: SweepID, Title: "custom cache sweep: " + req.Scene}
		start := time.Now()
		rec := &report.Recording{}
		r.Err = sweepInto(ctx, req, cfg, prov, rec)
		r.Elapsed = time.Since(start)
		r.Report = rec
		r.Output = rec.Text()
		obs.Default().Sub("engine").Timer("sweep_request").Observe(r.Elapsed)
		out <- r
	}()
	return out, nil
}

// archColumns lays out the architecture result table: one row per
// (cache configuration, pipeline) machine with its cycle accounting and
// queue high-water marks.
func archColumns() []report.Column {
	return []report.Column{
		{Name: "Configuration", Head: "%-36s", Cell: "%-36s"},
		{Name: "Pipeline", Head: " %-9s", Cell: " %-9s"},
		{Name: "Cycles", Head: "%12s", Cell: "%12d"},
		{Name: "Stall", Head: "%12s", Cell: "%12d"},
		{Name: "Util", Head: "%8s", Cell: "%7.3f%%"},
		{Name: "Mfrag/s", Head: "%9s", Cell: "%9.1f"},
		{Name: "InFlight", Head: "%9s", Cell: "%9d"},
		{Name: "ROB", Head: "%5s", Cell: "%5d"},
	}
}

// runArchitecture renders the request's texel stream through the
// engine's trace provider — coalescing with any concurrent request for
// the same (scene, scale, layout, traversal) key — and runs the
// cycle-level pipeline comparison, emitting one result whose recording
// is a single timing table.
func (e *Engine) runArchitecture(ctx context.Context, req api.ExperimentRequest) (<-chan Result, error) {
	cfg := req.ExpConfig()
	prov, err := e.traces()
	if err != nil {
		return nil, err
	}
	out := make(chan Result, 1)
	go func() {
		defer close(out)
		r := Result{Index: 0, ID: ArchID, Title: "texture-unit architecture comparison: " + req.Scene}
		start := time.Now()
		rec := &report.Recording{}
		r.Err = archInto(ctx, req, cfg, prov, rec)
		r.Elapsed = time.Since(start)
		r.Report = rec
		r.Output = rec.Text()
		obs.Default().Sub("engine").Timer("arch_request").Observe(r.Elapsed)
		out <- r
	}()
	return out, nil
}

// archInto does the architecture work: one trace, one miss timeline per
// cache design point, one cycle simulation per machine, one table. The
// fragment rate is quoted at the paper's 100MHz clock.
func archInto(ctx context.Context, req api.ExperimentRequest, cfg exp.Config, prov exp.TraceProvider, rep report.Reporter) error {
	key := exp.TraceKey{
		Scene:     req.Scene,
		Layout:    req.LayoutSpec(),
		Traversal: req.RasterTraversal(),
	}
	str, err := prov.SceneTrace(ctx, key, cfg.EffectiveScale())
	if err != nil {
		return err
	}
	machines := req.ArchConfigs()
	rep.Note("scene %s at scale %d, %s layout, %d addresses", req.Scene,
		cfg.EffectiveScale(), key.Layout.Kind, str.Len())
	rep.BeginTable(ArchID, archColumns())
	timelines := map[cache.Config]*arch.Timeline{}
	for _, m := range machines {
		if err := ctx.Err(); err != nil {
			return err
		}
		tl, ok := timelines[m.Cache]
		if !ok {
			if tl, err = arch.NewTimeline(m.Cache, str); err != nil {
				return err
			}
			timelines[m.Cache] = tl
		}
		res, err := tl.Simulate(m)
		if err != nil {
			return err
		}
		rep.Row(m.Cache.String(), m.Pipeline.String(), res.TotalCyc, res.StallCyc,
			100*res.Utilization(), res.FragmentsPerSecond(100e6)/1e6,
			res.MaxInFlight, res.MaxReorder)
	}
	return nil
}

// sweepInto does the sweep work: one trace, one grouped replay pass, one
// table.
func sweepInto(ctx context.Context, req api.ExperimentRequest, cfg exp.Config, prov exp.TraceProvider, rep report.Reporter) error {
	key := exp.TraceKey{
		Scene:     req.Scene,
		Layout:    req.LayoutSpec(),
		Traversal: req.RasterTraversal(),
	}
	str, err := prov.SceneTrace(ctx, key, cfg.EffectiveScale())
	if err != nil {
		return err
	}
	cfgs := req.CacheConfigs()
	stats, err := cache.Sweep(ctx, str, cfgs)
	if err != nil {
		return err
	}
	rep.Note("scene %s at scale %d, %s layout, %d addresses", req.Scene,
		cfg.EffectiveScale(), key.Layout.Kind, str.Len())
	rep.BeginTable(SweepID, sweepColumns())
	for i, s := range stats {
		rep.Row(cfgs[i].String(), 100*s.MissRate(), s.Accesses, s.Misses,
			s.Cold, s.Capacity, s.Conflict)
	}
	return nil
}
