// Package artifact is the persistent on-disk cache of everything in the
// stack that is expensive to compute and cheap to replay: DTA
// endpoint-CDF characterizations, golden traces with their checkpoints,
// and completed Monte-Carlo grid cells. The store is content-addressed
// by a caller-supplied key string that must spell out every input the
// artifact depends on (configuration fingerprints, seeds, operating
// point); the file name is the SHA-256 of (kind, key), and the full key
// is stored inside the blob so a hash collision degrades to a miss, not
// a wrong artifact.
//
// Every blob carries a format version. Get rejects blobs whose version
// differs from the package's — a decoder facing a future (or stale)
// layout reports ErrVersion instead of misreading bytes — so bumping
// Version invalidates every cache atomically. Writes go through a
// temp-file rename, so an interrupted run never leaves a torn blob
// behind.
//
// artifact is a leaf of the dependency graph (stdlib only), depended on
// by dta, core, mc and server; it is what turns every warm start in the
// stack — repeated CLI runs, resumed grids, deduplicated daemon jobs —
// into file reads.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Version is the on-disk format version. Bump it whenever the layout of
// any persisted payload changes; every existing blob then reads as a
// rejection (ErrVersion), never as a silently misdecoded artifact.
const Version = 1

// Artifact kinds in use across the stack. Kind strings partition the key
// space so a characterization key can never alias a trace key.
const (
	KindCharacterization = "dta-characterization"
	KindGoldenTrace      = "golden-trace"
	KindGridCell         = "grid-cell"
	KindHazard           = "hazard-table"
)

// ErrVersion reports a blob written under a different format version.
var ErrVersion = errors.New("artifact: format version mismatch")

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

// envelope is the gob-framed on-disk layout.
type envelope struct {
	Version int
	Kind    string
	Key     string
	Payload []byte
}

// encode frames a payload at an explicit version (tests use non-current
// versions to pin the rejection path).
func encode(kind, key string, payload []byte, version int) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(envelope{
		Version: version, Kind: kind, Key: key, Payload: payload,
	})
	if err != nil {
		return nil, fmt.Errorf("artifact: encode %s: %w", kind, err)
	}
	return buf.Bytes(), nil
}

// Put stores a payload under (kind, key), atomically replacing any
// previous blob.
func (s *Store) Put(kind, key string, payload []byte) error {
	blob, err := encode(kind, key, payload, Version)
	if err != nil {
		return err
	}
	path := s.path(kind, key)
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: %w", err)
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

// Get returns the payload stored under (kind, key). A clean miss returns
// (nil, false, nil); a blob that exists but cannot be trusted — torn
// file, version mismatch, key collision — returns false together with
// the reason, and callers fall back to recomputing.
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
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&env); err != nil {
		s.misses.Add(1)
		return nil, false, fmt.Errorf("artifact: decode %s: %w", kind, err)
	}
	if env.Version != Version {
		s.misses.Add(1)
		return nil, false, fmt.Errorf("%w: blob v%d, want v%d", ErrVersion, env.Version, Version)
	}
	if env.Kind != kind || env.Key != key {
		// Hash collision or foreign file: treat as a miss.
		s.misses.Add(1)
		return nil, false, nil
	}
	s.hits.Add(1)
	return env.Payload, true, nil
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
