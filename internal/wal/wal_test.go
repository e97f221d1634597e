package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func mustAppend(t *testing.T, w *Writer, typ Type, payload []byte) {
	t.Helper()
	if _, err := w.Append(typ, payload); err != nil {
		t.Fatalf("append: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	ev := Event{Period: 3, Stream: 1, Process: "P04", Seq: 17, Digest: 0xdeadbeefcafe, Failed: true}
	fn := FenceNote{Owner: "node-2", Token: 42}
	dq := DLQEntry{Process: "P08", Period: 2, Cause: "exhausted", Message: "<Order/>"}
	bn := BarrierNote{Period: 5, Barrier: 2, Manifest: 9}
	mustAppend(t, w, TypeDispatch, ev.Encode())
	mustAppend(t, w, TypeFence, fn.Encode())
	mustAppend(t, w, TypeDLQ, dq.Encode())
	mustAppend(t, w, TypeBarrier, bn.Encode())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, end, torn, err := ReadAll(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("clean log reported torn")
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	if recs[3].End != end {
		t.Fatalf("last record End %d != end %d", recs[3].End, end)
	}
	gotEv, err := DecodeEvent(recs[0].Payload)
	if err != nil || gotEv != ev {
		t.Fatalf("event round trip: %+v vs %+v (%v)", gotEv, ev, err)
	}
	gotFn, err := DecodeFenceNote(recs[1].Payload)
	if err != nil || gotFn != fn {
		t.Fatalf("fence round trip: %+v vs %+v (%v)", gotFn, fn, err)
	}
	gotDq, err := DecodeDLQEntry(recs[2].Payload)
	if err != nil || gotDq != dq {
		t.Fatalf("dlq round trip: %+v vs %+v (%v)", gotDq, dq, err)
	}
	gotBn, err := DecodeBarrierNote(recs[3].Payload)
	if err != nil || gotBn != bn {
		t.Fatalf("barrier round trip: %+v vs %+v (%v)", gotBn, bn, err)
	}

	// Reading from a mid-log offset returns only the suffix.
	tail, _, torn, err := ReadAll(path, recs[1].End)
	if err != nil || torn {
		t.Fatalf("suffix read: torn=%v err=%v", torn, err)
	}
	if len(tail) != 2 || tail[0].Type != TypeDLQ {
		t.Fatalf("suffix read got %d records", len(tail))
	}
}

// TestTornTailFuzz is the satellite torn-write test: truncating a valid
// log at any random byte offset must recover exactly the records whose
// frames survive complete, and OpenAppend must leave the file writable.
func TestTornTailFuzz(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := Create(path, 1<<30) // no auto-sync; Close flushes
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		ev := Event{Period: i / 10, Stream: i % 4, Process: "P01", Seq: i, Digest: rng.Uint64()}
		off, err := w.Append(TypeDispatch, ev.Encode())
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, off)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 120; trial++ {
		cut := int64(len(Magic)) + rng.Int63n(int64(len(full))-int64(len(Magic))+1)
		tp := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(tp, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// Expected: all records whose End <= cut.
		want := 0
		var wantEnd = int64(len(Magic))
		for _, e := range ends {
			if e <= cut {
				want++
				wantEnd = e
			}
		}
		recs, end, torn, err := ReadAll(tp, 0)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(recs) != want || end != wantEnd {
			t.Fatalf("cut=%d: got %d records end=%d, want %d end=%d", cut, len(recs), end, want, wantEnd)
		}
		if (cut != wantEnd) != torn {
			t.Fatalf("cut=%d: torn=%v but end=%d", cut, torn, wantEnd)
		}
		for i, r := range recs {
			ev, err := DecodeEvent(r.Payload)
			if err != nil || ev.Seq != i {
				t.Fatalf("cut=%d: record %d decoded %+v err=%v", cut, i, ev, err)
			}
		}
		// The torn file must accept appends after tail truncation.
		w2, err := OpenAppend(tp, 8)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if w2.Offset() != wantEnd {
			t.Fatalf("cut=%d: reopened at %d, want %d", cut, w2.Offset(), wantEnd)
		}
		mustAppend(t, w2, TypeAck, Event{Seq: 999}.Encode())
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		recs2, _, torn2, err := ReadAll(tp, 0)
		if err != nil || torn2 {
			t.Fatalf("cut=%d: reread after append: torn=%v err=%v", cut, torn2, err)
		}
		if len(recs2) != want+1 || recs2[want].Type != TypeAck {
			t.Fatalf("cut=%d: post-append got %d records", cut, len(recs2))
		}
	}
}

func TestMidFileCorruptionStopsReader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, w, TypeDispatch, Event{Seq: i}.Encode())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := ReadAll(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside record 5's body.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[recs[4].End+9] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, end, torn, err := ReadAll(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !torn || len(got) != 5 || end != recs[4].End {
		t.Fatalf("corrupt mid-file: got %d records torn=%v end=%d, want 5 true %d", len(got), torn, end, recs[4].End)
	}
}

// TestAbandonDropsUnflushedTail verifies the kill simulation: records
// buffered but never flushed vanish, records before the last Sync stay.
func TestAbandonDropsUnflushedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, TypeDispatch, Event{Seq: 0}.Encode())
	mustAppend(t, w, TypeDispatch, Event{Seq: 1}.Encode())
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, TypeDispatch, Event{Seq: 2}.Encode())
	mustAppend(t, w, TypeDispatch, Event{Seq: 3}.Encode())
	w.Abandon()
	recs, _, torn, err := ReadAll(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("abandoned log should end cleanly at the synced prefix")
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records after abandon, want 2 (unflushed tail must be lost)", len(recs))
	}
	if _, err := w.Append(TypeAck, nil); err == nil {
		t.Fatal("append after Abandon must fail")
	}
}

// TestFlushSurvivesAbandon pins the tiered durability contract: records
// flushed to the OS (no fsync) survive a process kill; only the
// still-buffered tail is lost.
func TestFlushSurvivesAbandon(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, TypeDispatch, Event{Seq: 0}.Encode())
	mustAppend(t, w, TypeDispatch, Event{Seq: 1}.Encode())
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, TypeDispatch, Event{Seq: 2}.Encode())
	w.Abandon()
	recs, _, torn, err := ReadAll(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("abandoned log should end cleanly at the flushed prefix")
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records after abandon, want the 2 flushed ones", len(recs))
	}
}

func TestOpenAppendMissingFileCreates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.log")
	w, err := OpenAppend(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, TypePeriodBegin, Event{Period: 0}.Encode())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := ReadAll(path, 0)
	if err != nil || len(recs) != 1 {
		t.Fatalf("got %d records err=%v", len(recs), err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.log")
	if err := os.WriteFile(path, []byte("NOTAWAL0\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadAll(path, 0); err == nil {
		t.Fatal("bad magic must error")
	}
}
