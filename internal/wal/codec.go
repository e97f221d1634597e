package wal

import (
	"encoding/binary"
	"fmt"
)

// Event is the payload of PeriodBegin/StreamBegin/Dispatch/Ack/StreamEnd
// records. Period/stream markers leave the per-instance fields zero.
// Digest is the PR 3 request digest keying idempotent re-execution.
// Payloads deliberately carry no timestamps so the flushed prefix of a
// run is content-deterministic for a given seed.
type Event struct {
	Period  int
	Stream  int
	Process string
	Seq     int
	Digest  uint64
	Failed  bool
}

// DLQEntry is the payload of DLQ records.
type DLQEntry struct {
	Process string
	Period  int
	Cause   string
	Message string
}

// BarrierNote is the payload of Barrier records: a committed checkpoint,
// naming the manifest sequence that captured the state at this point.
type BarrierNote struct {
	Period   int
	Barrier  int
	Manifest uint64
}

// FenceNote is the payload of Fence records: the owner and fencing
// token of the incarnation that opened this WAL file.
type FenceNote struct {
	Owner string
	Token uint64
}

// enc is a tiny append-only encoder: varints plus length-prefixed
// strings, enough for the fixed payload shapes above.
type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) str(s string)     { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }

func (e *enc) boolean(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

type dec struct {
	b   []byte
	err error
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("wal: truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("wal: truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.err = fmt.Errorf("wal: truncated string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) boolean() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < 1 {
		d.err = fmt.Errorf("wal: truncated bool")
		return false
	}
	v := d.b[0] != 0
	d.b = d.b[1:]
	return v
}

// Encode serializes the event payload.
func (ev Event) Encode() []byte {
	var e enc
	e.varint(int64(ev.Period))
	e.varint(int64(ev.Stream))
	e.str(ev.Process)
	e.varint(int64(ev.Seq))
	e.uvarint(ev.Digest)
	e.boolean(ev.Failed)
	return e.b
}

// DecodeEvent parses an Event payload.
func DecodeEvent(b []byte) (Event, error) {
	d := dec{b: b}
	ev := Event{
		Period:  int(d.varint()),
		Stream:  int(d.varint()),
		Process: d.str(),
		Seq:     int(d.varint()),
		Digest:  d.uvarint(),
		Failed:  d.boolean(),
	}
	return ev, d.err
}

// Encode serializes the dead-letter payload.
func (q DLQEntry) Encode() []byte {
	var e enc
	e.str(q.Process)
	e.varint(int64(q.Period))
	e.str(q.Cause)
	e.str(q.Message)
	return e.b
}

// DecodeDLQEntry parses a DLQEntry payload.
func DecodeDLQEntry(b []byte) (DLQEntry, error) {
	d := dec{b: b}
	q := DLQEntry{
		Process: d.str(),
		Period:  int(d.varint()),
		Cause:   d.str(),
		Message: d.str(),
	}
	return q, d.err
}

// Encode serializes the barrier payload.
func (n BarrierNote) Encode() []byte {
	var e enc
	e.varint(int64(n.Period))
	e.varint(int64(n.Barrier))
	e.uvarint(n.Manifest)
	return e.b
}

// DecodeBarrierNote parses a BarrierNote payload.
func DecodeBarrierNote(b []byte) (BarrierNote, error) {
	d := dec{b: b}
	n := BarrierNote{
		Period:   int(d.varint()),
		Barrier:  int(d.varint()),
		Manifest: d.uvarint(),
	}
	return n, d.err
}

// Encode serializes the fence payload.
func (n FenceNote) Encode() []byte {
	var e enc
	e.str(n.Owner)
	e.uvarint(n.Token)
	return e.b
}

// DecodeFenceNote parses a FenceNote payload.
func DecodeFenceNote(b []byte) (FenceNote, error) {
	d := dec{b: b}
	n := FenceNote{Owner: d.str(), Token: d.uvarint()}
	return n, d.err
}
