package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"texcache/internal/scenes"
	"texcache/internal/texture"
	"texcache/internal/trace"
)

func TestParseLayout(t *testing.T) {
	cases := []struct {
		name string
		kind texture.LayoutKind
	}{
		{"nonblocked", texture.NonBlockedKind},
		{"blocked", texture.BlockedKind},
		{"padded", texture.PaddedBlockedKind},
		{"williams", texture.WilliamsKind},
	}
	for _, c := range cases {
		spec, err := parseLayout(c.name, 8, 4)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if spec.Kind != c.kind {
			t.Errorf("%s -> %v", c.name, spec.Kind)
		}
	}
	if _, err := parseLayout("bogus", 8, 4); err == nil {
		t.Error("bogus layout accepted")
	}
}

func TestRecordInfoSimRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	if err := record([]string{"-scene", "goblet", "-scale", "8", "-o", path}); err != nil {
		t.Fatalf("record: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing: %v", err)
	}
	if err := info([]string{path}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := sim([]string{"-size", "8192", "-line", "64", "-ways", "2", path}); err != nil {
		t.Fatalf("sim: %v", err)
	}

	// The file is a store entry: its key names what was recorded and its
	// addresses are the scene's trace, bit for bit.
	k, got, err := loadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if k.Scene != "goblet" || k.Scale != 8 || k.Version != trace.CodecVersion {
		t.Errorf("embedded key = %+v", k)
	}
	s, err := scenes.ByNameChecked("goblet", 8)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := s.Trace(texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}, s.DefaultTraversal())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Addrs, want.Addrs) {
		t.Errorf("recorded trace differs from a fresh render (%d vs %d addresses)", got.Len(), want.Len())
	}
}

// TestLegacyTraceFileRejected pins the format change: a file in the old
// TXTR stream format fails with an error naming its magic.
func TestLegacyTraceFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.trace")
	if err := os.WriteFile(path, []byte("TXTR\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x02\x02"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, run := range []func([]string) error{info, sim} {
		if err := run([]string{path}); err == nil || !strings.Contains(err.Error(), `bad store magic "TXTR`) {
			t.Errorf("legacy file: err = %v, want a bad-magic error", err)
		}
	}
}

func TestRecordErrors(t *testing.T) {
	if err := record([]string{"-scene", "goblet"}); err == nil {
		t.Error("missing -o accepted")
	}
	if err := record([]string{"-scene", "nope", "-o", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("unknown scene accepted")
	}
	if err := record([]string{"-scene", "goblet", "-order", "diagonal",
		"-o", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("bad order accepted")
	}
}

func TestSimErrors(t *testing.T) {
	if err := sim([]string{"-size", "1000", "/nonexistent"}); err == nil {
		t.Error("missing file / bad size accepted")
	}
	if err := sim([]string{}); err == nil {
		t.Error("no file accepted")
	}
}

func TestInfoErrors(t *testing.T) {
	if err := info([]string{}); err == nil {
		t.Error("no file accepted")
	}
	if err := info([]string{"/nonexistent"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLocateSubcommand(t *testing.T) {
	if err := locate([]string{"-scene", "goblet", "-scale", "8", "0", "64"}); err != nil {
		t.Fatalf("locate: %v", err)
	}
	if err := locate([]string{"-scene", "goblet", "-scale", "8"}); err == nil {
		t.Error("no addresses accepted")
	}
	if err := locate([]string{"-scene", "goblet", "-scale", "8", "zzz"}); err == nil {
		t.Error("bad address accepted")
	}
	if err := locate([]string{"-scene", "nope", "1"}); err == nil {
		t.Error("unknown scene accepted")
	}
}
