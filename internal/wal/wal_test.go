package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// appendFrame seals payload as one frame at the end of log.
func appendFrame(log, payload []byte) []byte {
	start := len(log)
	log = append(Reserve(log), payload...)
	Seal(log[start:])
	return log
}

// replayAll replays log and returns copies of the payloads it accepted.
func replayAll(log []byte, maxPayload int) (payloads [][]byte, validLen int64) {
	validLen = Replay(bytes.NewReader(log), maxPayload, func(p []byte) error {
		payloads = append(payloads, bytes.Clone(p))
		return nil
	})
	return payloads, validLen
}

func TestReplayStopsAtFirstBadFrame(t *testing.T) {
	good := appendFrame(appendFrame(nil, []byte("first")), []byte("second"))
	badCRC := appendFrame(nil, []byte("third"))
	badCRC[HeaderLen] ^= 0xff
	zeroLen := make([]byte, HeaderLen)
	oversized := appendFrame(nil, bytes.Repeat([]byte("x"), 65))
	full := appendFrame(nil, []byte("third"))
	cases := []struct {
		name string
		tail []byte
	}{
		{"clean end", nil},
		{"torn header", full[:5]},
		{"torn payload", full[:len(full)-1]},
		{"bad checksum", badCRC},
		{"zero length", zeroLen},
		{"oversized", oversized},
	}
	for _, tc := range cases {
		log := append(bytes.Clone(good), tc.tail...)
		// A good frame after the bad one must not resurrect.
		log = appendFrame(log, []byte("after"))
		payloads, n := replayAll(log, 64)
		if tc.tail == nil {
			if n != int64(len(log)) || len(payloads) != 3 {
				t.Errorf("%s: valid length %d of %d, %d payloads", tc.name, n, len(log), len(payloads))
			}
			continue
		}
		if n != int64(len(good)) || len(payloads) != 2 || string(payloads[1]) != "second" {
			t.Errorf("%s: valid length %d, want %d; payloads %q", tc.name, n, len(good), payloads)
		}
	}

	// A payload the caller cannot decode ends the valid prefix too.
	n := Replay(bytes.NewReader(good), 64, func(p []byte) error {
		if string(p) == "second" {
			return errors.New("undecodable")
		}
		return nil
	})
	if n != HeaderLen+int64(len("first")) {
		t.Errorf("undecodable payload: valid length %d, want %d", n, HeaderLen+len("first"))
	}
}

// TestSealAllocs pins the zero-copy append: sealing a frame into a reused
// buffer allocates nothing.
func TestSealAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	payload := bytes.Repeat([]byte("p"), 100)
	allocs := testing.AllocsPerRun(100, func() {
		buf = append(Reserve(buf[:0]), payload...)
		Seal(buf)
	})
	if allocs != 0 {
		t.Fatalf("sealing a frame allocated %v times per run, want 0", allocs)
	}
	if binary.BigEndian.Uint32(buf) != uint32(len(payload)) {
		t.Fatalf("sealed length %d, want %d", binary.BigEndian.Uint32(buf), len(payload))
	}
}

func TestCommitFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	for _, data := range []string{"old", "new contents"} {
		if err := CommitFile(path, []byte(data), 0o600); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != data {
			t.Fatalf("read back %q, %v; want %q", got, err, data)
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o600 {
		t.Errorf("mode %v, want 0600", perm)
	}
}

// TestCommitFileRenameFailureRemovesTmp makes the final rename fail — the
// target is a non-empty directory — and requires that no temporary file is
// left behind.
func TestCommitFileRenameFailureRemovesTmp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "occupant"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CommitFile(path, []byte("data"), 0o644); err == nil {
		t.Fatal("CommitFile over a non-empty directory succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind (stat: %v)", err)
	}
}

// FuzzWALReplay replays arbitrary bytes: replay never panics and never
// claims a valid prefix longer than its input, and a frame sealed onto the
// valid prefix replays back intact after everything the prefix held.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{}, []byte("payload"))
	f.Add(appendFrame(nil, []byte("one")), []byte("two"))
	f.Add(appendFrame(nil, []byte("one"))[:10], []byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, []byte("x"))
	f.Fuzz(func(t *testing.T, data, payload []byte) {
		const maxPayload = 1 << 16
		prefix, n := replayAll(data, maxPayload)
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("valid length %d for %d input bytes", n, len(data))
		}
		if len(payload) == 0 || len(payload) > maxPayload {
			return
		}
		log := appendFrame(bytes.Clone(data[:n]), payload)
		got, m := replayAll(log, maxPayload)
		if m != int64(len(log)) || len(got) != len(prefix)+1 {
			t.Fatalf("valid length %d of %d with %d payloads, want all of it with %d", m, len(log), len(got), len(prefix)+1)
		}
		if !bytes.Equal(got[len(got)-1], payload) {
			t.Fatalf("round trip returned %q, want %q", got[len(got)-1], payload)
		}
	})
}
