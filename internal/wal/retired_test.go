package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// frame encodes one record exactly as it sits in a log file:
// [u32 length][u32 CRC32C][u8 type][payload].
func frame(typ uint8, payload []byte) []byte {
	body := append([]byte{typ}, payload...)
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
	return append(out, body...)
}

// watermarkPayload is the payload of a record in the retired slot 5: an
// extraction-watermark advance, a length-prefixed table key plus a
// uvarint row version.
func watermarkPayload(key string, version uint64) []byte {
	b := binary.AppendUvarint(nil, uint64(len(key)))
	b = append(b, key...)
	return binary.AppendUvarint(b, version)
}

// TestRecordNumbersStable pins the on-disk type numbers: retiring the
// watermark record must not renumber the types after it.
func TestRecordNumbersStable(t *testing.T) {
	want := map[Type]uint8{
		TypePeriodBegin: 1, TypeStreamBegin: 2, TypeDispatch: 3, TypeAck: 4,
		TypeDLQ: 6, TypeStreamEnd: 7, TypeBarrier: 8, TypeFence: 9,
	}
	for typ, n := range want {
		if uint8(typ) != n {
			t.Errorf("%s = %d, want %d", typ, uint8(typ), n)
		}
	}
}

// TestReadsLogWithWatermarkRecords reads a log written in the format that
// still emitted watermark records: the reader returns every record with
// its original type, and the records after a watermark keep theirs.
func TestReadsLogWithWatermarkRecords(t *testing.T) {
	ev := Event{Period: 1, Stream: 2, Process: "P13", Seq: 0, Digest: 7}
	dq := DLQEntry{Process: "P08", Period: 1, Cause: "exhausted", Message: "<Order/>"}
	bn := BarrierNote{Period: 1, Barrier: 3, Manifest: 4}
	log := []byte(Magic)
	log = append(log, frame(3, ev.Encode())...)
	log = append(log, frame(5, watermarkPayload("CDB.Orders#Europe", 1234))...)
	log = append(log, frame(6, dq.Encode())...)
	log = append(log, frame(5, watermarkPayload("DWH.Orderline", 99))...)
	log = append(log, frame(7, Event{Period: 1, Stream: 2}.Encode())...)
	log = append(log, frame(8, bn.Encode())...)
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, end, torn, err := ReadAll(path, 0)
	if err != nil || torn {
		t.Fatalf("read: torn=%v err=%v", torn, err)
	}
	if end != int64(len(log)) {
		t.Fatalf("end %d, want %d", end, len(log))
	}
	wantTypes := []Type{TypeDispatch, 5, TypeDLQ, 5, TypeStreamEnd, TypeBarrier}
	if len(recs) != len(wantTypes) {
		t.Fatalf("got %d records, want %d", len(recs), len(wantTypes))
	}
	for i, r := range recs {
		if r.Type != wantTypes[i] {
			t.Fatalf("record %d: type %s, want %s", i, r.Type, wantTypes[i])
		}
	}
	if got, err := DecodeDLQEntry(recs[2].Payload); err != nil || got != dq {
		t.Fatalf("dlq after watermark: %+v (%v)", got, err)
	}
	if got, err := DecodeBarrierNote(recs[5].Payload); err != nil || got != bn {
		t.Fatalf("barrier after watermark: %+v (%v)", got, err)
	}
	// A resumed writer appends after the old records.
	w, err := OpenAppend(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, TypeAck, ev.Encode())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, torn, err = ReadAll(path, 0)
	if err != nil || torn || len(recs) != 7 || recs[6].Type != TypeAck {
		t.Fatalf("after append: %d records torn=%v err=%v", len(recs), torn, err)
	}
}
