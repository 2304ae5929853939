package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procResult is one finished subprocess: its standard output, wall
// time and resident set size. PeakMB is the peak of the largest single
// process among the subprocess and the descendants it waited for (a
// coordinator or one of its workers), not their sum. SampledPeakMB is
// the largest of the subprocess's own resident set sizes read every
// 50 ms: it misses spikes shorter than that, which the kernel's peak
// counts and which come and go from run to run.
type procResult struct {
	Stdout        []byte
	Wall          time.Duration
	PeakMB        float64
	SampledPeakMB float64
}

// runProc runs the program to completion with its standard output
// captured. Standard error is kept for the error message only.
func runProc(ctx context.Context, dir, prog string, args ...string) (procResult, error) {
	cmd := exec.CommandContext(ctx, prog, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Start()
	var res procResult
	if err == nil {
		rss := sampleRSS(cmd.Process.Pid, 50*time.Millisecond)
		err = cmd.Wait()
		_, res.SampledPeakMB = rss.stopMB()
	}
	res.Stdout, res.Wall = stdout.Bytes(), time.Since(start)
	if cmd.ProcessState != nil {
		res.PeakMB = peakMB(cmd.ProcessState)
	}
	if err != nil {
		return res, fmt.Errorf("%s %s: %v: %s", filepath.Base(prog), strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	return res, nil
}

// peakMB reads the peak resident set size of a finished process.
func peakMB(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// rssSampler reads a process's resident set size from /proc at a fixed
// interval until stopped, for figures that GC timing barely moves (the
// kernel's exact peak depends on where a collection happens to fall).
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	sum  float64
	max  float64
	n    int
}

func sampleRSS(pid int, every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	path := fmt.Sprintf("/proc/%d/status", pid)
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			if mb, ok := readRSS(path); ok {
				s.sum += mb
				s.max = max(s.max, mb)
				s.n++
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stopMB stops the sampler and returns the mean and the largest of its
// samples.
func (s *rssSampler) stopMB() (mean, peak float64) {
	close(s.stop)
	<-s.done
	if s.n == 0 {
		return 0, 0
	}
	return s.sum / float64(s.n), s.max
}

// readRSS parses VmRSS (kilobytes) from a /proc status file.
func readRSS(path string) (float64, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f", &kb); err == nil {
				return kb / 1024, true
			}
		}
	}
	return 0, false
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// writeJSON writes v as JSON to path.
func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// host is the provenance every result records: a speed-up counts only
// with the host it was measured on.
type host struct {
	CPU       string `json:"cpu"`
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
}

// provenance describes this host and the source tree under test. A
// checkout without git metadata is identified by the SHA-256 of its Go
// sources and module file instead of a commit.
func provenance(root string) host {
	h := host{CPU: cpuModel(), NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	// Only a repository rooted at the checkout itself names its commit;
	// a checkout nested in some other repository does not.
	top, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel").Output()
	if err == nil && filepath.Clean(strings.TrimSpace(string(top))) == filepath.Clean(root) {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
			if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
				h.Commit += "+dirty"
			}
			return h
		}
	}
	h.Commit = "tree-sha256:" + treeHash(root)
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// treeHash hashes every .go file and go.mod of the program (the
// benchmark's own directory and build outputs excluded) in path order.
func treeHash(root string) string {
	hash := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "perfbench" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || rel == "go.mod" {
			f, err := os.Open(path)
			if err != nil {
				return nil
			}
			defer f.Close()
			fmt.Fprintf(hash, "%s\x00", rel)
			io.Copy(hash, f)
		}
		return nil
	})
	return hex.EncodeToString(hash.Sum(nil))[:16]
}

// span is one timed call into a layer, recorded by the benchmark around
// its own call. Times are offsets from the tracer's start.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Work is the operation's size where it has one (addresses,
	// requests, bytes), for per-unit rates.
	Work int64 `json:"work,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid no-op, which is how the untraced workloads run.
type tracer struct {
	t0   time.Time
	mu   sync.Mutex
	next int64
	all  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it with the
// operation's work count. On a nil tracer it returns a no-op closer.
func (t *tracer) begin(name string, parent int64) (id int64, end func(work int64)) {
	if t == nil {
		return 0, func(int64) {}
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	t.next++
	id = t.next
	t.mu.Unlock()
	return id, func(work int64) {
		s := span{ID: id, Parent: parent, Name: name, Start: start, End: time.Since(t.t0), Work: work}
		t.mu.Lock()
		t.all = append(t.all, s)
		t.mu.Unlock()
	}
}

// record adds an already-finished span (one reconstructed from a
// child process's timings).
func (t *tracer) record(name string, parent int64, start, end time.Time, work int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.all = append(t.all, span{ID: t.next, Parent: parent, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0), Work: work})
	t.mu.Unlock()
}

func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.all...)
}

// sum returns the total duration and work of every span with the name.
func (t *tracer) sum(name string) (time.Duration, int64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	var work int64
	n := 0
	for _, s := range t.all {
		if s.Name == name {
			d += s.End - s.Start
			work += s.Work
			n++
		}
	}
	return d, work, n
}
