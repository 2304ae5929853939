package texcache_test

// Trace determinism: the tile-parallel renderer must produce the exact
// serial texel address stream at every worker count. The fixture
// testdata/golden/trace_sha256.txt pins SHA-256 hashes of the serial
// renderer's traces — all four scenes at scale 1 in their default
// rasterization order, and every scene x traversal combination at
// scale 4 — and this test re-renders each row at several worker counts
// (including the serial path) and requires byte-identical streams.
// It runs under -race as well: the race leg is what proves the worker
// pool's tile ownership is sound.
//
// The fixture was generated from the serial renderer and is not meant
// to be regenerated casually: a hash change means the simulated address
// stream — the substrate of every experiment — changed.

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"texcache"
	"texcache/internal/raster"
)

// traceHash hashes the address stream as little-endian uint64s.
func traceHash(addrs []uint64) string {
	h := sha256.New()
	var b [8]byte
	for _, a := range addrs {
		binary.LittleEndian.PutUint64(b[:], a)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fbHash hashes the rendered image: every color channel in pixel order,
// then every depth value's bit pattern. Two renders hash equal only if
// the framebuffer and z-buffer are bit-identical.
func fbHash(r *texcache.Renderer) string {
	h := sha256.New()
	for _, c := range r.FB.Color {
		h.Write([]byte{c.R, c.G, c.B, c.A})
	}
	var b [4]byte
	for _, d := range r.FB.Depth {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(d))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fbGoldenPath is the framebuffer-hash fixture, keyed like the trace
// fixture (scene, scale, order). It pins the serial renderer's image so
// the worker sweep below proves the tile pass reproduces pixels and
// depth exactly, not just the address stream.
var fbGoldenPath = filepath.Join("testdata", "golden", "fb_sha256.txt")

func readGoldenFBHashes(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(fbGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var scene, order, hash string
		var scale int
		if _, err := fmt.Sscanf(sc.Text(), "%s %d %s %s", &scene, &scale, &order, &hash); err != nil {
			t.Fatalf("bad fixture line %q: %v", sc.Text(), err)
		}
		out[fmt.Sprintf("%s/%d/%s", scene, scale, order)] = hash
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty framebuffer hash fixture")
	}
	return out
}

// updateGoldenFBHashes regenerates the framebuffer fixture from serial
// renders of every trace-fixture row.
func updateGoldenFBHashes(t *testing.T, rows []goldenTraceRow) {
	t.Helper()
	layout := texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8}
	var buf []byte
	for _, row := range rows {
		scene, err := texcache.SceneByNameChecked(row.scene, row.scale)
		if err != nil {
			t.Fatal(err)
		}
		_, r, err := scene.Trace(layout, goldenTraversal(t, row.order))
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, fmt.Sprintf("%s %d %s %s\n", row.scene, row.scale, row.order, fbHash(r))...)
	}
	if err := os.WriteFile(fbGoldenPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// goldenTraceRow is one line of trace_sha256.txt.
type goldenTraceRow struct {
	scene string
	scale int
	order string
	addrs int
	hash  string
}

func readGoldenTraceRows(t *testing.T) []goldenTraceRow {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "golden", "trace_sha256.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []goldenTraceRow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r goldenTraceRow
		if _, err := fmt.Sscanf(sc.Text(), "%s %d %s %d %s",
			&r.scene, &r.scale, &r.order, &r.addrs, &r.hash); err != nil {
			t.Fatalf("bad fixture line %q: %v", sc.Text(), err)
		}
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty trace hash fixture")
	}
	return rows
}

// goldenTraversal maps a fixture order name to its traversal.
func goldenTraversal(t *testing.T, name string) texcache.Traversal {
	switch name {
	case "horizontal":
		return texcache.Traversal{Order: texcache.Horizontal}
	case "vertical":
		return texcache.Traversal{Order: raster.ColumnMajor}
	case "hilbert":
		return texcache.Traversal{Order: raster.HilbertOrder}
	case "tiled8":
		return texcache.Traversal{Order: texcache.Horizontal, TileW: 8, TileH: 8}
	}
	t.Fatalf("unknown traversal %q in fixture", name)
	return texcache.Traversal{}
}

// determinismWorkerCounts is the worker matrix: the serial reference
// path, the smallest truly parallel pool, and the machine's full width.
func determinismWorkerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

// TestTraceDeterminism renders every fixture row at every worker count
// and requires the exact golden stream. Scale-1 rows are the paper's
// full-resolution frames and dominate the runtime, so they are skipped
// in -short mode; scale-4 rows (the full scene x traversal matrix)
// always run.
func TestTraceDeterminism(t *testing.T) {
	layout := texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8}
	rows := readGoldenTraceRows(t)
	if *updateGolden {
		updateGoldenFBHashes(t, rows)
	}
	fbWant := readGoldenFBHashes(t)
	for _, row := range rows {
		row := row
		t.Run(fmt.Sprintf("%s/scale%d/%s", row.scene, row.scale, row.order), func(t *testing.T) {
			if row.scale == 1 && testing.Short() {
				t.Skip("full-resolution render; skipped in short mode")
			}
			scene, err := texcache.SceneByNameChecked(row.scene, row.scale)
			if err != nil {
				t.Fatal(err)
			}
			trav := goldenTraversal(t, row.order)
			wantFB, haveFB := fbWant[fmt.Sprintf("%s/%d/%s", row.scene, row.scale, row.order)]
			if !haveFB {
				t.Fatalf("no framebuffer hash fixture row (regenerate with -update)")
			}
			for _, workers := range determinismWorkerCounts() {
				tr, r, err := scene.TraceParallel(layout, trav, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(tr.Addrs) != row.addrs {
					t.Fatalf("workers=%d: %d addresses, golden has %d",
						workers, len(tr.Addrs), row.addrs)
				}
				if got := traceHash(tr.Addrs); got != row.hash {
					t.Fatalf("workers=%d: trace hash %s, golden %s — "+
						"the parallel merge diverged from the serial stream",
						workers, got, row.hash)
				}
				if got := fbHash(r); got != wantFB {
					t.Fatalf("workers=%d: framebuffer hash %s, golden %s — "+
						"the tile pass diverged from the serial image",
						workers, got, wantFB)
				}
			}
		})
	}
}
