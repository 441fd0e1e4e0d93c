package state

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"

	"secmon/internal/model"
)

// Event log format. One record per line:
//
//	<len> <crc32> <json>\n
//
// where <len> is the decimal byte length of <json>, <crc32> is the IEEE
// CRC-32 of <json> in lowercase hex, and <json> is the canonical encoding of
// a record — canonical meaning exactly what encoding/json produces for the
// record struct, no more and no less. A record is accepted only when the
// length matches, the checksum matches, the JSON parses strictly (unknown
// fields rejected) AND re-encodes byte-identically. JSON never contains a
// raw newline, so the line framing is unambiguous.
//
// The first record of a log is an "init" carrying the full system snapshot
// and the solve spec; every later record is a "delta" carrying one mutation.
// A mutate call may carry several deltas that re-solve once: its records
// share a batch, and the last one is marked end. Replay applies a batch only
// after seeing its end marker, so a crash between appending and committing
// leaves a prefix that replays as if the batch never happened. The file is
// fsynced once per committed batch.
//
// Recovery rule: a corrupt or non-canonical record at the very tail of the
// file is a torn write — it is discarded and the file truncated back to the
// last good record. Corruption in the middle of the file (good-looking data
// after a bad record) cannot be attributed to a crash and is a hard error.

// logVersion is the record schema version; bump on incompatible change.
const logVersion = 1

// record is one log entry. Field order is part of the canonical encoding.
type record struct {
	V     int    `json:"v"`
	Seq   uint64 `json:"seq"`
	RunID string `json:"runId"`
	Type  string `json:"type"` // "init" or "delta"

	// init payload
	System *model.System `json:"system,omitempty"`
	Spec   *SolveSpec    `json:"spec,omitempty"`

	// delta payload; End marks the last record of a mutate batch.
	Delta *Delta `json:"delta,omitempty"`
	End   bool   `json:"end,omitempty"`
}

// encodeRecord renders the framed line for a record.
func encodeRecord(r *record) ([]byte, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("state: encode record: %w", err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%d %08x ", len(body), crc32.ChecksumIEEE(body))
	buf.Write(body)
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// parseRecord decodes one framed line (without the trailing newline). It
// enforces every layer of the format — framing, checksum, strict canonical
// JSON — and returns a descriptive error naming the first violated layer.
func parseRecord(line []byte) (*record, error) {
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 <= 0 {
		return nil, fmt.Errorf("state: record missing length field")
	}
	n, err := strconv.Atoi(string(line[:sp1]))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("state: bad record length %q", line[:sp1])
	}
	rest := line[sp1+1:]
	sp2 := bytes.IndexByte(rest, ' ')
	if sp2 != 8 {
		return nil, fmt.Errorf("state: bad record checksum field")
	}
	sum, err := strconv.ParseUint(string(rest[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("state: bad record checksum %q", rest[:8])
	}
	body := rest[9:]
	if len(body) != n {
		return nil, fmt.Errorf("state: record length %d, frame says %d", len(body), n)
	}
	if crc32.ChecksumIEEE(body) != uint32(sum) {
		return nil, fmt.Errorf("state: record checksum mismatch")
	}
	var r record
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("state: record json: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("state: trailing data after record json")
	}
	canon, err := json.Marshal(&r)
	if err != nil {
		return nil, fmt.Errorf("state: re-encode record: %w", err)
	}
	if !bytes.Equal(canon, body) {
		return nil, fmt.Errorf("state: record json is not canonical")
	}
	if r.V != logVersion {
		return nil, fmt.Errorf("state: record version %d, want %d", r.V, logVersion)
	}
	return &r, nil
}

// tlog is an open per-tenant log file positioned at its end for appends.
type tlog struct {
	f    *os.File
	path string
	// failed is the first write or fsync error, and it poisons the handle:
	// the failed append may have left a torn record behind the file offset,
	// and a retried fsync can report success after the kernel dropped the
	// dirty pages. Appending past it would bury the torn record mid-file,
	// which Open rejects as corruption, so every later append returns this
	// error until the store is reopened and Open truncates the torn tail.
	failed error
}

// readLog scans a log file and returns its valid records plus the byte
// offset just past the last one. A torn tail is reported via recovered
// (callers truncate); mid-file corruption is an error.
func readLog(path string) (recs []*record, goodEnd int64, recovered bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, err
	}
	off := int64(0)
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// No newline: a partially flushed final record.
			return recs, off, true, nil
		}
		r, perr := parseRecord(data[:nl])
		if perr != nil {
			if int64(nl+1) == int64(len(data)) {
				// Bad final line: torn write, discard.
				return recs, off, true, nil
			}
			return nil, 0, false, fmt.Errorf("%s: record %d at offset %d: %w (log corrupt beyond the tail)",
				path, len(recs)+1, off, perr)
		}
		wantSeq := uint64(len(recs) + 1)
		if r.Seq != wantSeq {
			return nil, 0, false, fmt.Errorf("%s: record %d has seq %d, want %d", path, len(recs)+1, r.Seq, wantSeq)
		}
		recs = append(recs, r)
		off += int64(nl + 1)
		data = data[nl+1:]
	}
	return recs, off, false, nil
}

// openLog opens (creating if needed) a log for appending, after validating
// its contents and truncating a torn tail. It returns the open log and the
// validated records.
func openLog(path string) (*tlog, []*record, bool, error) {
	recs, goodEnd, recovered, err := func() ([]*record, int64, bool, error) {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return nil, 0, false, nil
		}
		return readLog(path)
	}()
	if err != nil {
		return nil, nil, false, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, false, err
	}
	if recovered {
		if err := f.Truncate(goodEnd); err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("state: truncate torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, false, err
		}
	}
	if _, err := f.Seek(goodEnd, 0); err != nil {
		f.Close()
		return nil, nil, false, err
	}
	return &tlog{f: f, path: path}, recs, recovered, nil
}

// append writes the records and fsyncs once — the commit point. A write or
// fsync error may leave a torn tail, which the next open discards; it also
// poisons the log (see tlog.failed). An encoding error happens before any
// I/O and leaves the log usable.
func (l *tlog) append(recs []*record) error {
	if l.failed != nil {
		return l.failed
	}
	var buf bytes.Buffer
	for _, r := range recs {
		line, err := encodeRecord(r)
		if err != nil {
			return err
		}
		buf.Write(line)
	}
	if _, err := l.f.Write(buf.Bytes()); err != nil {
		l.failed = fmt.Errorf("state: append to %s: %w (log refuses appends until the store is reopened)", l.path, err)
		return l.failed
	}
	if err := l.f.Sync(); err != nil {
		l.failed = fmt.Errorf("state: fsync %s: %w (log refuses appends until the store is reopened)", l.path, err)
		return l.failed
	}
	return nil
}

func (l *tlog) close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
