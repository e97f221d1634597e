// Package wal implements the benchmark's crash-consistency log: an
// append-only, checksummed write-ahead log recording E1 dispatch/ack
// events, dead-letter appends and period/stream barrier markers.
//
// File layout:
//
//	magic "DIPWAL1\n"
//	record*  where record = [u32 length][u32 CRC32C][u8 type][payload]
//
// length counts the type byte plus the payload; the CRC covers the same
// bytes. The format is partial-tail tolerant: a torn write (process kill
// mid-append, lost page-cache tail) leaves a record whose length, CRC or
// body is incomplete, and the reader stops at the last complete record
// instead of failing the whole log. OpenAppend truncates such a tail
// before appending, so a resumed run continues from a clean prefix.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Magic identifies a WAL file and pins the format version.
const Magic = "DIPWAL1\n"

// maxRecord bounds a single record; longer lengths mark corruption, not
// an allocation request.
const maxRecord = 1 << 26

// castagnoli is the CRC32-C polynomial table (hardware-accelerated on
// most platforms).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Type tags one WAL record.
type Type uint8

// Record types.
const (
	// TypePeriodBegin marks the start of period k after the external
	// systems were (re-)initialized. Payload: Event{Period}.
	TypePeriodBegin Type = iota + 1
	// TypeStreamBegin marks the start of one stream's dispatch window.
	// Payload: Event{Period, Stream}.
	TypeStreamBegin
	// TypeDispatch records one event handed to the engine, before its
	// effects. Payload: Event.
	TypeDispatch
	// TypeAck records the completion of a dispatched event (Failed marks
	// an instance failure). Payload: Event.
	TypeAck
	// Slot 5 held the retired extraction-watermark record. It stays
	// reserved so the later types keep their numbers; logs written
	// before the retirement may still carry such records, and readers
	// skip them like any other type they do not consume.
	_
	// TypeDLQ records a dead-lettered E1 message. Payload: DLQEntry.
	TypeDLQ
	// TypeStreamEnd marks a stream's completion (all its instances
	// finished). Payload: Event{Period, Stream}.
	TypeStreamEnd
	// TypeBarrier marks a committed checkpoint barrier; recovery resumes
	// from the snapshot the marker names. Payload: BarrierNote.
	TypeBarrier
	// TypeFence opens an ownership incarnation's WAL: the first record
	// of every fenced (cluster-mode) log, naming the owner and its
	// fencing token for the audit trail. Payload: FenceNote.
	TypeFence
)

// String names the record type.
func (t Type) String() string {
	switch t {
	case TypePeriodBegin:
		return "PERIOD_BEGIN"
	case TypeStreamBegin:
		return "STREAM_BEGIN"
	case TypeDispatch:
		return "DISPATCH"
	case TypeAck:
		return "ACK"
	case TypeDLQ:
		return "DLQ"
	case TypeStreamEnd:
		return "STREAM_END"
	case TypeBarrier:
		return "BARRIER"
	case TypeFence:
		return "FENCE"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Writer appends records to a WAL file. It is safe for concurrent use:
// the driver's dispatch goroutines log dispatches and acks from the
// concurrent streams A and B. Appends go through a buffered writer and
// are flushed to the OS every SyncEvery records and fsynced at explicit
// Sync calls (the stream barriers); a crash loses at most the buffered
// tail, which the reader's torn-tail tolerance absorbs.
type Writer struct {
	mu        sync.Mutex
	f         *os.File
	bw        *bufio.Writer
	off       int64 // logical offset including buffered bytes
	syncEvery int
	pending   int // records appended since the last flush+sync
	closed    bool
}

// DefaultSyncEvery is the group-commit interval: how many records may
// accumulate before the writer flushes and fsyncs on its own.
const DefaultSyncEvery = 32

// Create creates (or truncates) a WAL file and writes the magic header.
func Create(path string, syncEvery int) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	if _, err := f.WriteString(Magic); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("wal: write magic: %w", err)
	}
	return newWriter(f, int64(len(Magic)), syncEvery), nil
}

// OpenAppend opens an existing WAL for appending. The valid prefix is
// scanned first and any torn tail is truncated away, so new records
// always follow the last complete one. A missing file is created.
func OpenAppend(path string, syncEvery int) (*Writer, error) {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return Create(path, syncEvery)
	}
	_, end, _, err := ReadAll(path, 0)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if err := f.Truncate(end); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	return newWriter(f, end, syncEvery), nil
}

func newWriter(f *os.File, off int64, syncEvery int) *Writer {
	if syncEvery <= 0 {
		syncEvery = DefaultSyncEvery
	}
	return &Writer{f: f, bw: bufio.NewWriterSize(f, 64<<10), off: off, syncEvery: syncEvery}
}

// Append writes one record and returns the logical offset just past it.
// Every SyncEvery-th record triggers a flush+fsync (group commit).
func (w *Writer) Append(t Type, payload []byte) (int64, error) {
	if len(payload)+1 > maxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("wal: writer closed")
	}
	var hdr [9]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)+1))
	crc := crc32.Update(0, castagnoli, []byte{byte(t)})
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	hdr[8] = byte(t)
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if _, err := w.bw.Write(payload); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	w.off += int64(len(hdr) + len(payload))
	w.pending++
	if w.pending >= w.syncEvery {
		if err := w.syncLocked(); err != nil {
			return 0, err
		}
	}
	return w.off, nil
}

// Flush pushes the buffered tail to the OS without fsyncing. Flushed
// records survive a process kill (Abandon) — only a machine crash can
// lose them — so it is the cheap barrier-durability point between full
// checkpoint commits.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("wal: writer closed")
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	return nil
}

// Sync flushes the buffer and fsyncs the file — the durability point the
// driver forces at checkpoint commits and DLQ appends.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("wal: writer closed")
	}
	return w.syncLocked()
}

func (w *Writer) syncLocked() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	w.pending = 0
	return nil
}

// Offset returns the logical end offset: every appended record counts,
// buffered or not.
func (w *Writer) Offset() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off
}

// Close syncs and closes the file (the graceful shutdown path).
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.bw.Flush(); err != nil {
		_ = w.f.Close()
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		_ = w.f.Close()
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return w.f.Close()
}

// Abandon closes the file WITHOUT flushing the buffered tail — the
// in-process equivalent of a process kill. Records not yet flushed to
// the OS are lost exactly as they would be on a real crash; everything
// already flushed or fsynced survives.
func (w *Writer) Abandon() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	_ = w.f.Close()
}

// Record is one decoded WAL entry; End is the file offset just past it,
// usable as a replay watermark.
type Record struct {
	Type    Type
	Payload []byte
	End     int64
}

// ReadAll reads the records starting at the given offset (0 reads from
// the beginning, validating the magic header). It stops at the first
// incomplete or corrupt entry and reports the log torn; records before
// the tear are still returned. end is the offset of the last complete
// record — the point OpenAppend truncates to.
func ReadAll(path string, from int64) (recs []Record, end int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: open: %w", err)
	}
	defer f.Close()
	hdr := make([]byte, len(Magic))
	if _, err := io.ReadFull(f, hdr); err != nil || string(hdr) != Magic {
		return nil, 0, false, fmt.Errorf("wal: %s: bad or missing magic header", path)
	}
	if from < int64(len(Magic)) {
		from = int64(len(Magic))
	}
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return nil, 0, false, fmt.Errorf("wal: seek: %w", err)
	}
	br := bufio.NewReaderSize(f, 64<<10)
	end = from
	var lenbuf [8]byte
	for {
		if _, err := io.ReadFull(br, lenbuf[:]); err != nil {
			if err == io.EOF {
				return recs, end, false, nil
			}
			return recs, end, true, nil // partial header: torn tail
		}
		n := binary.LittleEndian.Uint32(lenbuf[0:4])
		want := binary.LittleEndian.Uint32(lenbuf[4:8])
		if n == 0 || n > maxRecord {
			return recs, end, true, nil
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return recs, end, true, nil // partial body: torn tail
		}
		if crc32.Checksum(body, castagnoli) != want {
			return recs, end, true, nil // bit rot or torn overwrite
		}
		end += int64(8 + int(n))
		recs = append(recs, Record{Type: Type(body[0]), Payload: body[1:], End: end})
	}
}
