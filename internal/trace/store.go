package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"texcache/internal/obs"
	"texcache/internal/raster"
	"texcache/internal/texture"
)

// CodecVersion names the encoded trace format. It participates in every
// store key, so bumping it (when the encoding or the renderer's address
// generation changes) orphans old files rather than misreading them.
const CodecVersion = "txc2"

// Key identifies one rendered address stream for the store: everything
// the stream depends on, and nothing it doesn't (cache parameters never
// appear — that is the whole point of trace-driven simulation). Layout,
// Traversal and Options are caller-canonicalized strings; two keys are
// the same entry iff every field matches.
type Key struct {
	Scene     string
	Scale     int
	Layout    string
	Traversal string
	Options   string
	Version   string
}

// canonical renders the key as the exact byte string that is hashed for
// the filename and embedded in the file for verification.
func (k Key) canonical() string {
	return "scene=" + k.Scene +
		"\nscale=" + strconv.Itoa(k.Scale) +
		"\nlayout=" + k.Layout +
		"\ntraversal=" + k.Traversal +
		"\noptions=" + k.Options +
		"\nversion=" + k.Version + "\n"
}

// RenderKey returns the key of the address stream a scene renders at the
// given scale, layout and traversal. The layout and traversal structs
// render via %+v, so any new field (which would change the address
// stream) automatically changes the key.
func RenderKey(scene string, scale int, layout texture.LayoutSpec, trav raster.Traversal) Key {
	return Key{
		Scene:     scene,
		Scale:     scale,
		Layout:    fmt.Sprintf("%+v", layout),
		Traversal: fmt.Sprintf("%+v", trav),
		Version:   CodecVersion,
	}
}

// keyFields lists the canonical form's fields in order; parseKey walks
// it to invert canonical.
var keyFields = [...]string{"scene", "scale", "layout", "traversal", "options", "version"}

// parseKey inverts canonical. Only the exact canonical form of some key
// is accepted, so parseKey(s).canonical() == s whenever it succeeds.
func parseKey(s string) (Key, error) {
	var vals [len(keyFields)]string
	rest := s
	for i, name := range keyFields {
		after, ok := strings.CutPrefix(rest, name+"=")
		if !ok {
			return Key{}, fmt.Errorf("trace: store key lacks field %q", name)
		}
		v, tail, ok := strings.Cut(after, "\n")
		if !ok {
			return Key{}, fmt.Errorf("trace: store key field %q unterminated", name)
		}
		vals[i], rest = v, tail
	}
	scale, err := strconv.Atoi(vals[1])
	if err != nil {
		return Key{}, fmt.Errorf("trace: store key scale %q: %w", vals[1], err)
	}
	k := Key{Scene: vals[0], Scale: scale, Layout: vals[2], Traversal: vals[3], Options: vals[4], Version: vals[5]}
	if k.canonical() != s {
		return Key{}, fmt.Errorf("trace: store key is not in canonical form")
	}
	return k, nil
}

// Hash returns the content address of the key: the hex SHA-256 of its
// canonical form, which is also the store filename stem.
func (k Key) Hash() string {
	sum := sha256.Sum256([]byte(k.canonical()))
	return hex.EncodeToString(sum[:])
}

// Store is a content-addressed directory of encoded traces. Entries are
// written atomically (temp file + rename) and verified on load (magic,
// key echo, payload checksum); any damaged or unreadable entry is
// treated as a miss and deleted, so corruption silently regenerates.
// Concurrent writers racing on one key are safe: each renames its own
// complete temp file, and either winner's bytes are a valid entry for
// the key.
type Store struct {
	dir string
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path returns the entry filename for a key.
func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, k.Hash()+".trace")
}

// storeMagic begins every store file: "TXSTORE" then format version 2
// (version 1 was the raw cache.Trace stream format, which carried no
// key echo or checksum).
var storeMagic = [8]byte{'T', 'X', 'S', 'T', 'O', 'R', 'E', 2}

// File layout after the magic, all little-endian:
//
//	uint32  key length     (echo of Key.canonical, guards hash collisions
//	string  canonical key   and lets tools identify entries)
//	uint64  address count
//	uint64  payload length in bytes
//	[32]byte SHA-256 of payload
//	bytes   payload (Compact sync blocks)

// maxKeyLen bounds the untrusted key-length field on load.
const maxKeyLen = 1 << 16

// EncodeEntry writes one store entry for (k, c) to w: the header above
// followed by the payload. Store.Save writes entries through it, and so
// does any tool that wants a trace file the store can verify.
func EncodeEntry(w io.Writer, k Key, c *Compact) error {
	key := k.canonical()
	hdr := make([]byte, 0, 8+4+len(key)+48)
	hdr = append(hdr, storeMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(key)))
	hdr = append(hdr, key...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(c.count))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(c.data)))
	sum := sha256.Sum256(c.data)
	hdr = append(hdr, sum[:]...)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(c.data)
	return err
}

// DecodeEntry parses and fully verifies one store entry: magic, key
// length bound, canonical key echo, payload length, payload checksum and
// the payload's block structure. It returns the embedded key, for the
// caller to compare with the key it expected, and the trace, which
// aliases raw. Every entry it accepts re-encodes to exactly raw.
func DecodeEntry(raw []byte) (Key, *Compact, error) {
	if len(raw) < len(storeMagic)+4 {
		return Key{}, nil, fmt.Errorf("trace: store entry shorter than header")
	}
	if !bytes.Equal(raw[:8], storeMagic[:]) {
		return Key{}, nil, fmt.Errorf("trace: bad store magic %q", raw[:8])
	}
	raw = raw[8:]
	keyLen := binary.LittleEndian.Uint32(raw[:4])
	raw = raw[4:]
	if keyLen > maxKeyLen || uint64(len(raw)) < uint64(keyLen)+48 {
		return Key{}, nil, fmt.Errorf("trace: store entry truncated in header")
	}
	k, err := parseKey(string(raw[:keyLen]))
	if err != nil {
		return Key{}, nil, err
	}
	raw = raw[keyLen:]
	count := binary.LittleEndian.Uint64(raw[:8])
	payloadLen := binary.LittleEndian.Uint64(raw[8:16])
	var sum [32]byte
	copy(sum[:], raw[16:48])
	raw = raw[48:]
	if uint64(len(raw)) != payloadLen {
		return Key{}, nil, fmt.Errorf("trace: store payload is %d bytes, header says %d", len(raw), payloadLen)
	}
	if sha256.Sum256(raw) != sum {
		return Key{}, nil, fmt.Errorf("trace: store payload checksum mismatch")
	}
	// Every address takes at least one varint byte; the bound also keeps
	// a hostile count from wrapping negative in the int conversion.
	if count > uint64(len(raw)) {
		return Key{}, nil, fmt.Errorf("trace: store entry claims %d addresses in %d payload bytes", count, len(raw))
	}
	c := &Compact{data: raw, count: int(count)}
	if err := c.validate(); err != nil {
		return Key{}, nil, err
	}
	return k, c, nil
}

// Load returns the stored trace for key, or (nil, false) on any miss:
// absent, truncated, checksum mismatch, wrong key echo, or undecodable.
// Damaged entries are deleted so the regenerated trace can take the
// slot. Load never fails loudly — the caller always holds the fallback
// (render and Save).
func (s *Store) Load(k Key) (*Compact, bool) {
	reg := obs.Default()
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	c, err := s.load(k)
	if reg != nil {
		st := reg.Sub("trace").Sub("store")
		st.Timer("load").ObserveSince(start)
		if err == nil {
			st.Counter("hits").Inc()
		} else {
			st.Counter("misses").Inc()
			if !os.IsNotExist(err) {
				st.Counter("corrupt").Inc()
			}
		}
	}
	if err != nil {
		if !os.IsNotExist(err) {
			// Anything present but unusable is removed so the next Save
			// starts clean. Removal failure is irrelevant: it stays a miss.
			os.Remove(s.path(k))
		}
		return nil, false
	}
	return c, true
}

// load reads and fully verifies one entry.
func (s *Store) load(k Key) (*Compact, error) {
	raw, err := os.ReadFile(s.path(k))
	if err != nil {
		return nil, err
	}
	got, c, err := DecodeEntry(raw)
	if err != nil {
		return nil, err
	}
	if got != k {
		return nil, fmt.Errorf("trace: store entry key mismatch")
	}
	return c, nil
}

// Save writes the trace under key, atomically: the complete entry lands
// in a temp file in the store directory and is renamed into place, so a
// reader never observes a partial entry and racing writers each install
// a complete one.
func (s *Store) Save(k Key, c *Compact) error {
	reg := obs.Default()
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	err := s.save(k, c)
	if reg != nil {
		st := reg.Sub("trace").Sub("store")
		st.Timer("save").ObserveSince(start)
		if err == nil {
			st.Counter("saves").Inc()
			st.Counter("bytes_written").Add(uint64(c.SizeBytes()))
		}
	}
	return err
}

func (s *Store) save(k Key, c *Compact) error {
	f, err := os.CreateTemp(s.dir, k.Hash()+".tmp-*")
	if err != nil {
		return fmt.Errorf("trace: saving store entry: %w", err)
	}
	tmp := f.Name()
	err = EncodeEntry(f, k, c)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.path(k))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("trace: saving store entry: %w", err)
	}
	return nil
}
