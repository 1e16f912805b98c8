// Package artifact is the persistent on-disk cache of everything in the
// stack that is expensive to compute and cheap to replay: DTA
// characterizations and the violation grids model C reads off them,
// golden traces with their checkpoints, hazard tables and completed
// Monte-Carlo grid cells. The store is
// content-addressed by a caller-supplied key string that must spell out
// every input the artifact depends on (configuration fingerprints,
// seeds, operating point); the file name is the SHA-256 of (kind, key),
// and the full key is stored inside the blob so a hash collision
// degrades to a miss, not a wrong artifact.
//
// A blob is a flat envelope: a magic prefix, the format version, the
// kind and key, the SHA-256 of the payload, then the payload itself.
// Get rejects anything whose magic, version, kind, key or checksum does
// not match, so a stale layout, a foreign file or a flipped bit reads as
// a miss instead of a misread artifact, and bumping Version invalidates
// every cache atomically. Writes go through a temp-file rename, so an
// interrupted run never leaves a torn blob behind.
//
// Cache (cache.go) is the one load-or-build path over a Store: every
// kind is loaded, validated, built, written and counted there, and no
// other code calls Get or Put. artifact depends only on memo and the
// stdlib, and is depended on by dta, core, mc, cluster and server; it
// is what turns every warm start in the stack — repeated CLI runs,
// resumed grids, deduplicated daemon jobs — into file reads.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Version is the on-disk format version. Bump it whenever the layout of
// the envelope or of any persisted payload changes; every existing blob
// then reads as a rejection (ErrVersion), never as a silently
// misdecoded artifact.
const Version = 2

// Artifact kinds in use across the stack. Kind strings partition the key
// space so a characterization key can never alias a trace key.
const (
	KindCharacterization = "dta-characterization"
	KindViolationGrid    = "dta-violation-grid"
	KindGoldenTrace      = "golden-trace"
	KindGridCell         = "grid-cell"
	KindHazard           = "hazard-table"
)

// ErrVersion reports a blob written under a different format version.
var ErrVersion = errors.New("artifact: format version mismatch")

// ErrChecksum reports a blob whose payload does not match the SHA-256
// stored beside it: a flipped bit or a torn payload.
var ErrChecksum = errors.New("artifact: payload checksum mismatch")

// Stats counts store traffic since Open. fisimd's /v1/stats serves it
// as its "store" object.
type Stats struct {
	Hits   int64 `json:"hits"`   // Get found a valid blob
	Misses int64 `json:"misses"` // Get found nothing (or a rejected blob)
	Puts   int64 `json:"puts"`   // blobs written
}

// Store is one cache directory. It is safe for concurrent use; writers
// of the same key race benignly (last rename wins, all contents equal by
// key construction).
type Store struct {
	dir string

	hits, misses, puts atomic.Int64
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's traffic counters.
func (s *Store) Stats() Stats {
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Puts: s.puts.Load()}
}

// path maps (kind, key) to the blob's file name.
func (s *Store) path(kind, key string) string {
	h := sha256.Sum256([]byte(kind + "\x00" + key))
	return filepath.Join(s.dir, kind+"-"+hex.EncodeToString(h[:16])+".art")
}

// magic prefixes every blob. Blobs from before the flat envelope are
// gob streams, which open with a message length and a type descriptor
// and can never start with it, so they fail here and read as misses.
const magic = "FSART\x00"

// header returns the bytes of a blob before its checksum: magic,
// version (uint32), then kind and key, each a uint32 length and the
// bytes; integers are little-endian.
func header(kind, key string, version uint32) []byte {
	h := make([]byte, 0, len(magic)+12+len(kind)+len(key))
	h = append(h, magic...)
	h = binary.LittleEndian.AppendUint32(h, version)
	h = binary.LittleEndian.AppendUint32(h, uint32(len(kind)))
	h = append(h, kind...)
	h = binary.LittleEndian.AppendUint32(h, uint32(len(key)))
	return append(h, key...)
}

// frame returns the bytes of a blob before its payload: the header at
// the current Version, then the payload's SHA-256.
func frame(kind, key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(header(kind, key, Version), sum[:]...)
}

// decode unframes a blob read for (kind, key), returning the payload as
// a subslice of blob. ok=false with a nil error is a clean miss: the
// blob belongs to another (kind, key), behind a hash collision.
func decode(blob []byte, kind, key string) (payload []byte, ok bool, err error) {
	h := header(kind, key, Version)
	if !bytes.HasPrefix(blob, h) {
		if len(blob) < len(magic)+4 || !bytes.HasPrefix(blob, []byte(magic)) {
			return nil, false, errors.New("artifact: not an artifact blob")
		}
		if v := binary.LittleEndian.Uint32(blob[len(magic):]); v != Version {
			return nil, false, fmt.Errorf("%w: blob v%d, want v%d", ErrVersion, v, Version)
		}
		return nil, false, nil
	}
	rest := blob[len(h):]
	if len(rest) < sha256.Size || sha256.Sum256(rest[sha256.Size:]) != [sha256.Size]byte(rest[:sha256.Size]) {
		return nil, false, ErrChecksum
	}
	return rest[sha256.Size:], true, nil
}

// Put stores a payload under (kind, key), atomically replacing any
// previous blob.
func (s *Store) Put(kind, key string, payload []byte) error {
	path := s.path(kind, key)
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	// The frame and the payload go out as two writes, so the payload is
	// never copied into a blob-sized buffer.
	for _, b := range [][]byte{frame(kind, key, payload), payload} {
		if _, err := tmp.Write(b); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("artifact: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// Get returns the payload stored under (kind, key), a subslice of the
// file's bytes that the caller owns. A clean miss — no blob, or a blob
// of another (kind, key) behind a hash collision — returns
// (nil, false, nil); a blob that exists but cannot be trusted — foreign
// magic, version mismatch, checksum mismatch — returns false together
// with the reason, and callers fall back to recomputing.
func (s *Store) Get(kind, key string) ([]byte, bool, error) {
	blob, err := os.ReadFile(s.path(kind, key))
	if errors.Is(err, os.ErrNotExist) {
		s.misses.Add(1)
		return nil, false, nil
	}
	if err != nil {
		s.misses.Add(1)
		return nil, false, fmt.Errorf("artifact: %w", err)
	}
	payload, ok, err := decode(blob, kind, key)
	if !ok {
		s.misses.Add(1)
		return nil, false, err
	}
	s.hits.Add(1)
	return payload, true, nil
}

// AppendFloat64s appends the IEEE-754 bits of vs to b, little-endian:
// the row layout of the flat payload codecs. NaN payloads and signed
// zeros and infinities survive bit for bit.
func AppendFloat64s(b []byte, vs []float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// ReadFloat64s fills dst from the first 8*len(dst) bytes of b, the
// inverse of AppendFloat64s.
func ReadFloat64s(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// EncodeGob gob-encodes a typed payload for Put.
func EncodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("artifact: payload encode: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeGob decodes a payload produced by EncodeGob into v.
func DecodeGob(payload []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("artifact: payload decode: %w", err)
	}
	return nil
}
