package trace

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"texcache/internal/scenes"
	"texcache/internal/texture"
)

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Small deltas encode small.
	if zigzag(-1) != 1 || zigzag(1) != 2 || zigzag(0) != 0 {
		t.Error("zigzag ordering unexpected")
	}
}

func encodeEntry(t testing.TB, k Key, c *Compact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeEntry(&buf, k, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEntryRoundTrip pins the codec pair: DecodeEntry returns the key
// and addresses EncodeEntry was given, and the bytes are exactly what
// Store.Save puts on disk.
func TestEntryRoundTrip(t *testing.T) {
	k := testKey()
	k.Options = "tiles=4"
	want := CompactFromAddrs(texturedAddrs(30000))
	raw := encodeEntry(t, k, want)

	got, c, err := DecodeEntry(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got != k {
		t.Errorf("decoded key %+v, want %+v", got, k)
	}
	ga, wa := c.Decode(), want.Decode()
	if len(ga.Addrs) != len(wa.Addrs) {
		t.Fatalf("decoded %d addresses, want %d", len(ga.Addrs), len(wa.Addrs))
	}
	for i := range wa.Addrs {
		if ga.Addrs[i] != wa.Addrs[i] {
			t.Fatalf("address %d: %d != %d", i, ga.Addrs[i], wa.Addrs[i])
		}
	}

	s := openStore(t)
	if err := s.Save(k, want); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(s.path(k))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, raw) {
		t.Error("Store.Save wrote different bytes from EncodeEntry")
	}
}

func TestEncodeEntryWriteError(t *testing.T) {
	if err := EncodeEntry(failWriter{}, testKey(), CompactFromAddrs(texturedAddrs(10))); err == nil {
		t.Error("write failure not reported")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

func TestDecodeEntryRejects(t *testing.T) {
	good := encodeEntry(t, testKey(), CompactFromAddrs(texturedAddrs(1000)))
	keyLen := len(testKey().canonical())
	withKey := func(key string) []byte {
		var buf bytes.Buffer
		buf.Write(storeMagic[:])
		buf.Write([]byte{byte(len(key)), byte(len(key) >> 8), 0, 0})
		buf.WriteString(key)
		buf.Write(good[12+keyLen:])
		return buf.Bytes()
	}
	cases := []struct {
		name, raw, msg string
	}{
		{"legacy TXTR file", "TXTR\x01\x00\x00\x00" + strings.Repeat("\x00", 16), `bad store magic "TXTR`},
		{"short", string(good[:9]), "shorter than header"},
		{"missing field", string(withKey("scene=goblet\nscale=4\n")), `lacks field "layout"`},
		{"unterminated field", string(withKey(strings.TrimSuffix(testKey().canonical(), "\n"))), "unterminated"},
		{"bad scale", string(withKey(strings.Replace(testKey().canonical(), "scale=4", "scale=x", 1))), "scale"},
		{"non-canonical scale", string(withKey(strings.Replace(testKey().canonical(), "scale=4", "scale=04", 1))), "canonical"},
		{"trailing key bytes", string(withKey(testKey().canonical() + "extra=1\n")), "canonical"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeEntry([]byte(tc.raw))
			if err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("DecodeEntry error = %v, want one containing %q", err, tc.msg)
			}
		})
	}

	// A count larger than the payload could hold is rejected before the
	// int conversion, whatever the checksum says.
	huge := append([]byte(nil), good...)
	for i := 0; i < 8; i++ {
		huge[12+keyLen+i] = 0xff
	}
	if _, _, err := DecodeEntry(huge); err == nil || !strings.Contains(err.Error(), "claims") {
		t.Errorf("oversized count: err = %v", err)
	}
}

// storeEntrySeed renders the Goblet benchmark at scale 8 and returns its
// store entry, encoded under the key the engine would file it by.
func storeEntrySeed(f *testing.F) []byte {
	f.Helper()
	s, err := scenes.ByNameChecked("goblet", 8)
	if err != nil {
		f.Fatal(err)
	}
	layout := texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}
	trav := s.DefaultTraversal()
	tr, _, err := s.Trace(layout, trav)
	if err != nil {
		f.Fatal(err)
	}
	return encodeEntry(f, RenderKey("goblet", 8, layout, trav), CompactFromTrace(tr))
}

// FuzzDecodeEntry hardens the store's entry decoder, the trust boundary
// every trace file crosses on load: any input must be rejected or
// accepted without panicking, and every accepted entry must re-encode to
// exactly the input bytes.
func FuzzDecodeEntry(f *testing.F) {
	seed := storeEntrySeed(f)
	if _, _, err := DecodeEntry(seed); err != nil {
		f.Fatalf("real entry rejected: %v", err)
	}
	f.Add(seed)
	for _, n := range []int{0, 8, 12, 40, len(seed) / 2, len(seed) - 1} {
		f.Add(seed[:n])
	}
	for _, off := range []int{0, 9, 14, len(seed) - 50, len(seed) - 1} {
		flipped := append([]byte(nil), seed...)
		flipped[off] ^= 0x10
		f.Add(flipped)
	}
	f.Add(encodeEntry(f, testKey(), CompactFromAddrs(nil)))

	f.Fuzz(func(t *testing.T, data []byte) {
		k, c, err := DecodeEntry(data)
		if err != nil {
			return
		}
		if n := len(c.Decode().Addrs); n != c.Len() {
			t.Fatalf("accepted entry decodes %d addresses, header says %d", n, c.Len())
		}
		if again := encodeEntry(t, k, c); !bytes.Equal(again, data) {
			t.Fatalf("accepted entry re-encodes to %d different bytes (input %d)", len(again), len(data))
		}
	})
}
