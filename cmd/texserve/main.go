// Command texserve is the multi-tenant experiment server: it accepts
// texcache.ExperimentRequest documents over HTTP — the same versioned
// struct cmd/texsim builds from its flags — and streams each result back
// as NDJSON, byte-identical to `texsim -json` for the same request.
//
// Identical concurrent requests coalesce: every render goes through one
// shared single-flight trace cache keyed by (scene, layout, traversal,
// scale), so N clients asking for the same sweep cost one render (plus
// one disk load each across restarts when -trace-dir is set). Replay
// capacity is bounded by a fair scheduler: -workers requests run at
// once, waiters queue FIFO per tenant and are granted slots round-robin
// across tenants, and once a tenant has -queue requests waiting, further
// ones are rejected with 429 and a Retry-After header.
//
// Above the trace cache sits a shared result cache: the finished NDJSON
// stream of each request is memoized by its canonical content key, so a
// repeated request skips rendering AND replay and is served the stored
// bytes (byte-identical to a fresh run). The cache is shared across
// tenants — results are pure functions of the request — and -result-dir
// persists finished streams across restarts. Grid requests bypass it:
// their row set depends on pruning frontier state.
//
// Usage:
//
//	texserve -addr :8321 -trace-dir /var/cache/texcache -result-dir /var/cache/texresults
//	texserve -addr 127.0.0.1:0 -addr-file /tmp/texserve.addr
//
// Endpoints:
//
//	POST /v1/experiments   run a request, stream NDJSON rows
//	GET  /v1/experiments   list registered experiment IDs
//	GET  /healthz          liveness probe
//	GET  /metrics          expvar metrics (also /debug/vars)
//	GET  /debug/pprof/     runtime profiles
//
// A request names its tenant in the body ("tenant") or the
// X-Texcache-Tenant header; requests without one share an anonymous
// bucket. Every response carries X-Texcache-Api-Version; error bodies
// are JSON {"v","code","error","field"} documents with wire-stable
// codes. A connection is closed when its request headers take longer
// than 5 s or it sits idle for 60 s. SIGINT / SIGTERM drain in-flight
// requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"texcache"
)

func main() {
	os.Exit(run())
}

// Connection timeouts. A client must send its request headers within
// readHeaderTimeout, and a keep-alive connection idle for idleTimeout is
// closed, so a slow or silent client cannot hold a connection open. The
// body and the response stay unbounded: a large sweep streams its rows
// for as long as it runs.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 60 * time.Second
)

// newHTTPServer serves h with the connection timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func run() int {
	addr := flag.String("addr", ":8321", "listen address (host:port; port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent requests replaying at once")
	queue := flag.Int("queue", 16, "queued requests allowed per tenant before 429")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After interval advertised on 429 responses")
	traceDir := flag.String("trace-dir", "", "persist rendered traces in this directory across requests and restarts")
	resultDir := flag.String("result-dir", "", "persist finished result streams in this directory; repeat requests are served without re-simulating")
	renderWorkers := flag.Int("render-workers", 0, "tile-parallel rasterization workers per render (0 = GOMAXPROCS)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown grace period for in-flight requests")
	flag.Parse()

	reg := texcache.NewMetricsRegistry()
	texcache.AttachMetrics(reg)
	defer texcache.DetachMetrics()
	texcache.PublishMetricsExpvar("texcache", reg)

	srv, err := newServer(serverConfig{
		Workers:       *workers,
		Queue:         *queue,
		RetryAfter:    *retryAfter,
		TraceDir:      *traceDir,
		ResultDir:     *resultDir,
		RenderWorkers: *renderWorkers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "texserve:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "texserve:", err)
		return 1
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "texserve:", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "texserve: listening on %s (workers %d, queue %d/tenant)\n",
		ln.Addr(), *workers, *queue)

	httpSrv := newHTTPServer(srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "texserve:", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "texserve: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "texserve:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "texserve: summary: %s\n", reg.SummaryLine())
	return 0
}
