package dbproto

import (
	"testing"

	rel "repro/internal/relational"
)

func TestRemoteSnapshotRestore(t *testing.T) {
	srv := rel.NewServer(0)
	db := srv.CreateInstance("dwh")
	schema, err := rel.NewSchema([]rel.Column{
		{Name: "Id", Type: rel.TypeInt},
		{Name: "Qty", Type: rel.TypeFloat},
	}, "Id")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("Facts", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tb.Insert(rel.Row{rel.NewInt(int64(i)), rel.NewFloat(float64(i) / 3)}); err != nil {
			t.Fatal(err)
		}
	}
	remote, err := Serve(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	client := NewClient(remote.BaseURL(), "dwh", nil)

	blob, err := client.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate, then restore over the wire and check the mutation is gone.
	if err := tb.Insert(rel.Row{rel.NewInt(100), rel.NewFloat(1)}); err != nil {
		t.Fatal(err)
	}
	n, err := client.Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("restored %d rows, want 20", n)
	}
	if got := tb.Len(); got != 20 {
		t.Fatalf("table has %d rows after remote restore, want 20", got)
	}
	// Garbage blobs are protocol errors, not transport errors.
	if _, err := client.Restore([]byte("not-a-snapshot")); err == nil {
		t.Fatal("restoring junk must fail")
	}
}
