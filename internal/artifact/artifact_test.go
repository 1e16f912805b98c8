package artifact

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"slices"
	"sync"
	"testing"
)

// encode is a whole blob in one buffer, at an explicit version: the
// header, the payload's SHA-256, then the payload.
func encode(kind, key string, payload []byte, version uint32) []byte {
	sum := sha256.Sum256(payload)
	return slices.Concat(header(kind, key, version), sum[:], payload)
}

// TestPutWritesEncodedBlob: Put writes the frame and the payload
// separately, and the file is byte for byte the one-buffer encoding.
func TestPutWritesEncodedBlob(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{nil, {0}, bytes.Repeat([]byte{0xA5, 0x00, 0x7F}, 1<<16)} {
		if err := st.Put("kind", "key|n=1", payload); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(st.path("kind", "key|n=1"))
		if err != nil {
			t.Fatal(err)
		}
		if want := encode("kind", "key|n=1", payload, Version); !bytes.Equal(got, want) {
			t.Fatalf("%d-byte payload: Put wrote %d bytes that differ from the %d-byte encoding", len(payload), len(got), len(want))
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{0, 1, 2, 0xFF, 0x80, 7}
	if err := st.Put("kind", "key|a=1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get("kind", "key|a=1")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload drifted: %x != %x", got, payload)
	}
	s := st.Stats()
	if s.Hits != 1 || s.Puts != 1 || s.Misses != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestMissAndKeyIsolation(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get("kind", "absent"); ok || err != nil {
		t.Fatalf("expected clean miss, got ok=%v err=%v", ok, err)
	}
	if err := st.Put("kind", "k1", []byte("one")); err != nil {
		t.Fatal(err)
	}
	// Same key under a different kind is a distinct artifact.
	if _, ok, _ := st.Get("other", "k1"); ok {
		t.Error("kind does not partition the key space")
	}
}

func TestVersionBumpRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-write a blob framed at a future format version at the exact
	// path Get will consult.
	blob := encode("kind", "key", []byte("payload"), Version+1)
	if err := os.WriteFile(st.path("kind", "key"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, err := st.Get("kind", "key")
	if ok {
		t.Fatal("version-bumped blob was accepted")
	}
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestTornBlobIsRejectedNotMisread(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path("kind", "key"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, err := st.Get("kind", "key")
	if ok || err == nil {
		t.Fatalf("torn blob: ok=%v err=%v, want rejection with error", ok, err)
	}
}

// A blob in the gob envelope of format version 1 fails the magic check:
// a miss with a reason, never a misread payload.
func TestGobEnvelopeBlobMisses(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old, err := EncodeGob(struct {
		Version   int
		Kind, Key string
		Payload   []byte
	}{1, "kind", "key", []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path("kind", "key"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := st.Get("kind", "key"); ok || err == nil {
		t.Fatalf("gob envelope: ok=%v err=%v payload=%q, want rejection with error", ok, err, got)
	}
	if err := st.Put("kind", "key", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := st.Get("kind", "key"); !ok || err != nil || string(got) != "payload" {
		t.Fatalf("overwritten blob: %q, %v, %v", got, ok, err)
	}
}

// Flipping any single byte of a blob — header, checksum or payload —
// must make Get miss: a payload flip fails the checksum, a header flip
// fails the magic, version, length or (kind, key) check.
func TestEveryByteFlipMisses(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("a payload long enough to span several words")
	if err := st.Put("kind", "key|a=1", payload); err != nil {
		t.Fatal(err)
	}
	path := st.path("kind", "key|a=1")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range good {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			bad := bytes.Clone(good)
			bad[i] ^= mask
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok, _ := st.Get("kind", "key|a=1"); ok {
				t.Fatalf("byte %d ^ %#x: hit with payload %q", i, mask, got)
			}
		}
	}
	// A payload flip names the checksum.
	bad := bytes.Clone(good)
	bad[len(bad)-1] ^= 1
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get("kind", "key|a=1"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("payload flip: err = %v, want ErrChecksum", err)
	}
	// Every truncation misses too.
	for n := range good {
		if err := os.WriteFile(path, good[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := st.Get("kind", "key|a=1"); ok {
			t.Fatalf("blob truncated to %d bytes was a hit", n)
		}
	}
}

func TestGobPayloadRoundTrip(t *testing.T) {
	type payload struct {
		F []float64
		S string
	}
	in := payload{F: []float64{1.5, -0.0, 3.1415926535}, S: "x"}
	b, err := EncodeGob(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := DecodeGob(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.F) != 3 || out.F[2] != in.F[2] || out.S != "x" {
		t.Fatalf("round-trip drifted: %+v", out)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

// TestConcurrentSameKeyPutStaysAtomic races many writers of one key
// (two daemons over one cache directory, or resolver workers racing a
// store miss) against a reader: every Get that hits must decode to one
// of the complete payloads — the rename-based writer must never expose
// a torn or interleaved blob.
func TestConcurrentSameKeyPutStaysAtomic(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Distinct payloads per writer, each self-describing and large
	// enough that a torn write would be observable.
	const writers = 8
	const rounds = 20
	payloads := make([][]byte, writers)
	for w := range payloads {
		p := make([]byte, 4096)
		for i := range p {
			p[i] = byte(w)
		}
		payloads[w] = p
	}
	valid := func(got []byte) bool {
		if len(got) != 4096 {
			return false
		}
		w := got[0]
		if int(w) >= writers {
			return false
		}
		return bytes.Equal(got, payloads[w])
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := st.Put("kind", "contended", payloads[w]); err != nil {
					t.Errorf("writer %d round %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < writers*rounds; i++ {
			got, ok, err := st.Get("kind", "contended")
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			if ok && !valid(got) {
				t.Errorf("reader observed a torn blob: len=%d first=%d", len(got), got[0])
				return
			}
		}
	}()
	wg.Wait()
	<-readerDone

	// After the dust settles the key must hold one intact payload.
	got, ok, err := st.Get("kind", "contended")
	if err != nil || !ok {
		t.Fatalf("final Get = %v, %v", ok, err)
	}
	if !valid(got) {
		t.Fatalf("final blob torn: len=%d", len(got))
	}
}
