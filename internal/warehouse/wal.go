package warehouse

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"oraclesize/internal/wal"
)

// The write-ahead log is a sequence of internal/wal frames, one per
// deposit, each holding one encoded entry. A deposit appends its frame
// with a single write call; replay stops at the first torn or corrupt
// frame, so an interrupted deposit never surfaces as a half-written unit.

// frameHeaderLen is the wal frame header length.
const frameHeaderLen = wal.HeaderLen

// maxFramePayload bounds one frame so a corrupt length prefix cannot
// trigger a giant allocation during replay.
const maxFramePayload = 1 << 28

// appendFrame encodes one entry as a WAL frame into buf.
func appendFrame(buf []byte, e entry) []byte {
	start := len(buf)
	buf = appendEntry(wal.Reserve(buf), e)
	wal.Seal(buf[start:])
	return buf
}

// replayWAL reads every intact frame from the WAL at path. It returns
// the decoded entries and the byte length of the valid frame prefix;
// content past validLen is torn or corrupt and must be truncated before
// the file is appended to again. A missing file reads as empty.
func replayWAL(path string) (entries []entry, validLen int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("warehouse: opening wal: %w", err)
	}
	defer f.Close()
	validLen = wal.Replay(f, maxFramePayload, func(payload []byte) error {
		e, rest, err := decodeEntry(payload)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("warehouse: %d trailing bytes after wal entry", len(rest))
		}
		entries = append(entries, e)
		return nil
	})
	return entries, validLen, nil
}

// walName renders the WAL filename for a sequence number.
func walName(seq int) string { return fmt.Sprintf("wal-%06d.log", seq) }

// listWALs returns the (seq, path) of every WAL file in dir, in sequence
// order.
func listWALs(dir string) ([]int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, name := range names {
		base := filepath.Base(name)
		numPart := strings.TrimSuffix(strings.TrimPrefix(base, "wal-"), ".log")
		seq, err := strconv.Atoi(numPart)
		if err != nil {
			continue // not ours
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs, nil
}
