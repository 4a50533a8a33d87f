// Package wal is the single definition of the repository's write-ahead-log
// frame layout, plus the atomic file commit the logs' owners checkpoint
// with. A log is a sequence of frames:
//
//	[4B big-endian payload length][4B big-endian CRC-32 (IEEE) of payload][payload]
//
// An appender writes each frame with one write call, so a crash can only
// tear the final frame. Replay keeps the valid prefix and stops at the
// first frame that is torn, has a zero or oversized length, fails its
// checksum, or holds a payload the caller cannot decode; everything from
// there on is a torn tail. What a payload holds and how the log file is
// opened, shared or rotated is left to the caller.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// HeaderLen is the byte length of a frame header.
const HeaderLen = 8

// Reserve appends an empty frame header to buf. Append the payload right
// after it, then Seal the frame in place.
func Reserve(buf []byte) []byte {
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
}

// Seal fills in the header of frame, a reserved header followed by the
// whole payload.
func Seal(frame []byte) {
	payload := frame[HeaderLen:]
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
}

// Replay reads frames from r and hands each payload to fn in order. It
// returns the byte length of the valid prefix: the frames read before the
// end of r or the first frame that is torn, empty, longer than maxPayload,
// fails its checksum, or whose payload fn rejects with an error. The
// payload slice is reused between calls, so fn must copy what it keeps.
func Replay(r io.Reader, maxPayload int, fn func(payload []byte) error) (validLen int64) {
	var header [HeaderLen]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return validLen
		}
		length := binary.BigEndian.Uint32(header[:4])
		if length == 0 || uint64(length) > uint64(maxPayload) {
			return validLen
		}
		if uint32(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			return validLen
		}
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(header[4:]) {
			return validLen
		}
		if fn(payload) != nil {
			return validLen
		}
		validLen += HeaderLen + int64(length)
	}
}

// CommitFile replaces path with data atomically: it writes path+".tmp"
// with mode perm, fsyncs and closes it, and renames it over path. A crash
// leaves path holding either its old contents or data in full. On any
// error the temporary file is removed.
func CommitFile(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, perm)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: committing %s: %w", path, err)
	}
	return nil
}
