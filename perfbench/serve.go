package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"texcache"
)

// The serve workload is mixed texserve traffic: a seeded Poisson open
// loop from two tenants over at most nproc keep-alive connections, with
// the server's -workers one below that (minimum 1). Tenant "dash"
// repeats a hot set of 20 requests warmed in setup, so each is a
// result-cache hit; tenant "explore" sends never-repeated custom sweeps
// over traces warmed in setup, so each is a result-cache miss and a
// trace-cache hit. Latency is timed from each request's due time.
const (
	serveRate      = 120.0 // requests per second, both tenants together
	serveMissShare = 0.05  // share of requests that are explore misses
	serveScale     = 8     // scale of every request (hot and miss)
	serveMissCfgs  = 4     // configurations per line size in a miss sweep
	serveMissLines = 2     // distinct line sizes in a miss sweep
	serveMissCheck = 3     // misses re-run in-process after the window
	// serveLateBound is how late the generator may send a request before
	// the run is invalid: beyond it the measured latencies would include
	// the generator's own stall.
	serveLateBound = 200 * time.Millisecond
)

var serveScenes = []string{"flight", "town", "guitar", "goblet"}

// hotSet is the dash tenant's 20 repeated requests: registered
// experiments on one scene, sweeps over every scene, one architecture
// comparison.
func hotSet(tiny bool) []texcache.ExperimentRequest {
	var hot []texcache.ExperimentRequest
	for _, id := range []string{"table4.1", "fig5.7", "hilbert"} {
		hot = append(hot, texcache.ExperimentRequest{Experiments: []string{id}, Scenes: []string{"goblet"}, Scale: serveScale})
	}
	for _, scene := range serveScenes {
		for j := 0; j < 4; j++ {
			var cfgs []texcache.RequestCacheConfig
			for k := 0; k < 4; k++ {
				cfgs = append(cfgs, texcache.RequestCacheConfig{SizeBytes: (4 << j) << 10 << k, LineBytes: 32 << (k % 2), Ways: 2})
			}
			hot = append(hot, texcache.ExperimentRequest{Scene: scene, Configs: cfgs, Scale: serveScale})
		}
	}
	hot = append(hot, texcache.ExperimentRequest{Scene: "goblet", Scale: serveScale,
		Architecture: &texcache.RequestArchitecture{Pipeline: "both"}})
	if tiny {
		for i := range hot {
			hot[i].Scale = 16
		}
	}
	return hot
}

// missScenes and missLinePairs are what miss sweeps cycle through:
// the three scenes whose traces cost about the same to replay (goblet's
// is several times shorter) and line sizes from 32 bytes up (16-byte
// lines double a walk), so miss latency is one mode, not a mixture
// whose median jumps between modes from run to run.
var (
	missScenes    = []string{"flight", "town", "guitar"}
	missLinePairs = [][serveMissLines]int{{32, 64}, {32, 128}, {64, 128}}
)

// missSizes are the capacities of a miss sweep's configurations, one
// per configuration at each line size.
var missSizes = [serveMissCfgs]int{4 << 10, 16 << 10, 64 << 10, 256 << 10}

// missRequest draws the k-th explore sweep: a fixed number of
// configurations over a fixed number of line sizes on a scene whose
// trace the hot set warmed. Scenes and line-size pairs cycle with k and
// the capacities are fixed, so every run replays the same mix of work;
// the seed draws the associativities, which makes each sweep new.
func missRequest(rng *rand.Rand, k int, tiny bool) texcache.ExperimentRequest {
	var cfgs []texcache.RequestCacheConfig
	for _, line := range missLinePairs[(k/len(missScenes))%len(missLinePairs)] {
		for _, size := range missSizes {
			cfgs = append(cfgs, texcache.RequestCacheConfig{SizeBytes: size, LineBytes: line, Ways: 1 << rng.Intn(4)})
		}
	}
	scale := serveScale
	if tiny {
		scale = 16
	}
	return texcache.ExperimentRequest{Scene: missScenes[k%len(missScenes)], Configs: cfgs, Scale: scale}
}

// server is one running texserve subprocess.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error
}

// startServer launches texserve on a free port with fresh stores under
// dir and waits until it answers /healthz.
func startServer(ctx context.Context, e *env, dir string) (*server, error) {
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(filepath.Join(e.bin, "texserve"),
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-trace-dir", filepath.Join(dir, "traces"), "-result-dir", filepath.Join(dir, "results"),
		"-workers", fmt.Sprint(max(1, runtime.NumCPU()-1)))
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	go func() { s.err = cmd.Wait(); close(s.done) }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			s.base = "http://" + strings.TrimSpace(string(b))
			if resp, err := http.Get(s.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, nil
				}
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("texserve exited: %v: %s", s.err, lastLine(stderr.String()))
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("texserve did not become ready within 60s")
		}
	}
}

// stop shuts the server down gracefully, waits for it to exit and
// returns its peak RSS.
func (s *server) stop() float64 {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	if s.cmd.ProcessState == nil {
		return 0
	}
	return peakMB(s.cmd.ProcessState)
}

// post sends one request and reads the whole body.
func post(ctx context.Context, client *http.Client, base, tenant string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/experiments", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Texcache-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serverMetrics is the part of texserve's /metrics the benchmark reads:
// result-cache counts and the server's own request timer.
type serverMetrics struct {
	Hits, Misses int
	ReqCount     int
	ReqTotal     time.Duration
}

func readMetrics(ctx context.Context, client *http.Client, base string) (serverMetrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return serverMetrics{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return serverMetrics{}, err
	}
	defer resp.Body.Close()
	var vars struct {
		Texcache map[string]json.RawMessage `json:"texcache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return serverMetrics{}, fmt.Errorf("decoding /metrics: %w", err)
	}
	var m serverMetrics
	json.Unmarshal(vars.Texcache["engine.result_cache.hits"], &m.Hits)
	json.Unmarshal(vars.Texcache["engine.result_cache.misses"], &m.Misses)
	var timer struct {
		Count   int   `json:"count"`
		TotalNS int64 `json:"total_ns"`
	}
	json.Unmarshal(vars.Texcache["server.request"], &timer)
	m.ReqCount, m.ReqTotal = timer.Count, time.Duration(timer.TotalNS)
	return m, nil
}

// serveFixture is a warmed server plus the hot set's captured bodies.
type serveFixture struct {
	srv      *server
	client   *http.Client
	hot      [][]byte // request bodies
	captured [][]byte // response bodies captured in setup
	// reference produces the expected body of a miss: an in-process
	// RunNDJSON of the same request.
	reference func(context.Context, texcache.ExperimentRequest) ([]byte, error)
}

func inProcessNDJSON(ctx context.Context, req texcache.ExperimentRequest) ([]byte, error) {
	var b bytes.Buffer
	err := texcache.RunNDJSON(ctx, req, &b, nil)
	return b.Bytes(), err
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// serveSetup starts a fresh server and warms it: every hot request is
// sent once (rendering every trace the misses will use) and its body
// captured.
func serveSetup(ctx context.Context, e *env, dir string) (*serveFixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := startServer(ctx, e, dir)
	if err != nil {
		return nil, err
	}
	fx := &serveFixture{srv: srv, client: newClient(runtime.NumCPU()), reference: inProcessNDJSON}
	for _, req := range hotSet(e.tiny) {
		body, err := json.Marshal(req)
		if err != nil {
			srv.stop()
			return nil, err
		}
		status, resp, err := post(ctx, fx.client, srv.base, "dash", body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warming %s: HTTP %d: %s", body, status, resp)
		}
		if err != nil {
			srv.stop()
			return nil, err
		}
		fx.hot = append(fx.hot, body)
		fx.captured = append(fx.captured, resp)
	}
	return fx, nil
}

// serveStats is one open-loop window's outcome.
type serveStats struct {
	hitMS, missMS []float64
	maxLate       time.Duration
	rssMB         float64 // texserve's mean resident set over the window
	meanMS        float64 // client mean latency over every completed request
	admissionMS   float64 // client mean minus the server's request-timer mean
	refused       int
	// cacheHits and cacheMisses are texserve's own result-cache counts
	// over the window (/metrics deltas).
	cacheHits, cacheMisses int
}

// serveWindow drives the seeded open loop for the given seconds against
// a warmed fixture, accounting every request and checking every body.
func serveWindow(ctx context.Context, e *env, o *outcome, fx *serveFixture, seconds float64, seed int64) serveStats {
	rng := rand.New(rand.NewSource(seed))
	n := max(1, int(math.Round(serveRate*seconds)))
	nMiss := max(1, int(math.Round(float64(n)*serveMissShare)))
	// A Poisson process conditioned on its count: n uniform arrival
	// times, sorted.
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	isMiss := make([]bool, n)
	for _, i := range rng.Perm(n)[:nMiss] {
		isMiss[i] = true
	}
	bodies := make([][]byte, n)
	hotIdx := make([]int, n)
	seen := map[string]bool{}
	var missIdx []int
	for i := range bodies {
		if !isMiss[i] {
			hotIdx[i] = rng.Intn(len(fx.hot))
			bodies[i] = fx.hot[hotIdx[i]]
			continue
		}
		for {
			b, _ := json.Marshal(missRequest(rng, len(missIdx), e.tiny))
			if !seen[string(b)] {
				seen[string(b)] = true
				bodies[i] = b
				break
			}
		}
		missIdx = append(missIdx, i)
	}
	check := map[int]bool{}
	for _, k := range rng.Perm(len(missIdx))[:min(serveMissCheck, len(missIdx))] {
		check[missIdx[k]] = true
	}

	before, err := readMetrics(ctx, fx.client, fx.srv.base)
	if err != nil {
		o.problem("serve: %v", err)
		return serveStats{}
	}
	hp, mp := o.phase("hit"), o.phase("miss")
	var (
		mu        sync.Mutex
		st        serveStats
		missBody  = map[int][]byte{}
		latTotal  time.Duration
		completed int
		jobs      = make(chan int, n) // sized to every send: the dispatcher never blocks
		wg        sync.WaitGroup
	)
	rss := sampleRSS(fx.srv.cmd.Process.Pid, 50*time.Millisecond)
	start := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				tenant := "dash"
				if isMiss[i] {
					tenant = "explore"
				}
				status, body, err := post(ctx, fx.client, fx.srv.base, tenant, bodies[i])
				doneAt := time.Now()
				dueAt := start.Add(due[i])
				lat := doneAt.Sub(dueAt)
				mu.Lock()
				p := hp
				if isMiss[i] {
					p = mp
				}
				switch {
				case err != nil:
					p.Failed++
				case status == http.StatusTooManyRequests:
					p.Refused++
					st.refused++
				case status != http.StatusOK:
					p.Failed++
				default:
					p.Succeeded++
					completed++
					latTotal += lat
					if isMiss[i] {
						st.missMS = append(st.missMS, ms(lat))
						if check[i] {
							missBody[i] = body
						}
					} else {
						st.hitMS = append(st.hitMS, ms(lat))
						if !bytes.Equal(body, fx.captured[hotIdx[i]]) {
							o.problem("serve: hit body for %s differs from the setup capture", bodies[i])
						}
					}
				}
				mu.Unlock()
				name := "texserve.hit"
				if isMiss[i] {
					name = "texserve.miss"
				}
				e.tr.record(name, 0, dueAt, doneAt, int64(len(body)))
			}
		}()
	}
	for i := 0; i < n; i++ {
		if wait := time.Until(start.Add(due[i])); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		st.maxLate = max(st.maxLate, time.Since(start)-due[i])
		if isMiss[i] {
			mp.Attempted++
		} else {
			hp.Attempted++
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	st.rssMB, _ = rss.stopMB()

	after, err := readMetrics(ctx, fx.client, fx.srv.base)
	if err != nil {
		o.problem("serve: %v", err)
		return st
	}
	st.cacheHits, st.cacheMisses = after.Hits-before.Hits, after.Misses-before.Misses
	checkServeCounts(o, before, after, len(st.hitMS), len(st.missMS), st.maxLate)
	if completed > 0 {
		st.meanMS = ms(latTotal / time.Duration(completed))
		if dc := after.ReqCount - before.ReqCount; dc > 0 {
			st.admissionMS = st.meanMS - ms((after.ReqTotal-before.ReqTotal)/time.Duration(dc))
		}
	}
	// Outside the timed window: a seeded sample of miss bodies must equal
	// an in-process run of the same request.
	for i := range check {
		got, ok := missBody[i]
		if !ok {
			continue
		}
		var req texcache.ExperimentRequest
		if err := json.Unmarshal(bodies[i], &req); err != nil {
			o.problem("serve: %v", err)
			continue
		}
		if want, err := fx.reference(ctx, req); err != nil {
			o.problem("serve: in-process run of %s: %v", bodies[i], err)
		} else if !bytes.Equal(got, want) {
			o.problem("serve: miss body for %s differs from an in-process run", bodies[i])
		}
	}
	return st
}

// checkServeCounts holds the server's result-cache counts over the
// window to the hits and misses the generator got back, and the
// generator to its lateness bound.
func checkServeCounts(o *outcome, before, after serverMetrics, hits, misses int, maxLate time.Duration) {
	if got := after.Hits - before.Hits; got != hits {
		o.problem("serve: /metrics counts %d result-cache hits, the generator got %d hit responses", got, hits)
	}
	if got := after.Misses - before.Misses; got != misses {
		o.problem("serve: /metrics counts %d result-cache misses, the generator got %d miss responses", got, misses)
	}
	if maxLate > serveLateBound {
		o.problem("serve: invalid run, the generator sent a request %v late (bound %v)", maxLate, serveLateBound)
	}
}

func runServe(ctx context.Context, e *env) *outcome {
	o := newOutcome()
	var setups []float64
	var fx *serveFixture
	for i := 0; i < 5; i++ {
		if fx != nil {
			fx.srv.stop()
		}
		t0 := time.Now()
		var err error
		if fx, err = serveSetup(ctx, e, filepath.Join(e.work, fmt.Sprintf("serve-%d", i))); err != nil {
			o.problem("serve setup: %v", err)
			return o
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	st := serveWindow(ctx, e, o, fx, e.seconds, e.seed)
	peak := fx.srv.stop()
	o.Metrics.set("setup_s", median(setups), "s")
	setE2E(o, st.missMS, 0.90, st.hitMS, 0.99, []float64{st.rssMB})
	o.Named["serve.hit_p50_ms"] = median(st.hitMS)
	o.Named["serve.hit_p99_ms"] = tail(st.hitMS, 0.99)
	o.Named["serve.miss_p50_ms"] = median(st.missMS)
	o.Named["serve.miss_p90_ms"] = tail(st.missMS, 0.90)
	o.Named["serve.peak_rss_mb"] = peak
	o.Named["serve.mean_rss_mb"] = st.rssMB
	o.Named["serve.generator_max_late_ms"] = ms(st.maxLate)
	return o
}
