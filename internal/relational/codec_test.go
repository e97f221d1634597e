package relational

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"
)

func populateSnapshotDB(t *testing.T, db *Database) {
	t.Helper()
	s, err := NewSchema([]Column{
		{Name: "Id", Type: TypeInt},
		{Name: "Name", Type: TypeString, Nullable: true},
		{Name: "Amount", Type: TypeFloat},
		{Name: "Active", Type: TypeBool},
		{Name: "Seen", Type: TypeTime},
	}, "Id")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("Items", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateIndex("Name"); err != nil {
		t.Fatal(err)
	}
	base := time.Unix(0, 1700000000000000000)
	for i := 0; i < 50; i++ {
		row := Row{NewInt(int64(i)), NewString("n"), NewFloat(float64(i) * 1.5), NewBool(i%2 == 0), NewTime(base)}
		if i%7 == 0 {
			row[1] = Value{} // NULL
		}
		if err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	// Mix in deletes and updates so slots and indexes move.
	del := PredicateFunc("Id%10=3", func(s *Schema, r Row) (bool, error) { return r[0].Int()%10 == 3, nil })
	if _, err := tb.Delete(del); err != nil {
		t.Fatal(err)
	}
	upd := PredicateFunc("Id%5=0", func(s *Schema, r Row) (bool, error) { return r[0].Int()%5 == 0, nil })
	if _, err := tb.Update(upd, func(r Row) Row {
		nr := r.Clone()
		nr[2] = NewFloat(r[2].Float() + 100)
		return nr
	}); err != nil {
		t.Fatal(err)
	}
}

func snapshotTestDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("snaptest")
	populateSnapshotDB(t, db)
	return db
}

func relEqual(t *testing.T, a, b *Relation) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("row counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		if len(ra) != len(rb) {
			t.Fatalf("row %d widths differ", i)
		}
		for c := range ra {
			if !ra[c].Equal(rb[c]) {
				t.Fatalf("row %d col %d: %s vs %s", i, c, ra[c], rb[c])
			}
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := snapshotTestDB(t)
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst := snapshotTestDB(t)
	// Perturb the destination so restore has real work to do.
	if err := dst.MustTable("Items").Insert(Row{NewInt(999), NewString("x"), NewFloat(0), NewBool(false), NewTime(time.Unix(0, 1))}); err != nil {
		t.Fatal(err)
	}
	n, err := dst.Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := src.MustTable("Items").snapshotRows()
	if n != len(want) {
		t.Fatalf("restored %d rows, want %d", n, len(want))
	}
	relEqual(t, src.MustTable("Items").Scan(), dst.MustTable("Items").Scan())
	// Indexes were rebuilt: an indexed lookup must find the same rows.
	got, err := dst.MustTable("Items").SelectWhere(ColEq("Name", NewString("n")))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := src.MustTable("Items").SelectWhere(ColEq("Name", NewString("n")))
	if err != nil {
		t.Fatal(err)
	}
	relEqual(t, ref, got)
	// The PK was rebuilt: inserting a duplicate key must fail...
	if err := dst.MustTable("Items").Insert(Row{NewInt(1), NewString("dup"), NewFloat(0), NewBool(false), NewTime(time.Unix(0, 1))}); err == nil {
		t.Fatal("duplicate key accepted after restore")
	}
	// ...and new non-duplicate mutations work normally.
	if err := dst.MustTable("Items").Insert(Row{NewInt(1000), NewString("new"), NewFloat(1), NewBool(true), NewTime(time.Unix(0, 2))}); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsDrift(t *testing.T) {
	src := snapshotTestDB(t)
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSchema([]Column{{Name: "K", Type: TypeInt}}, "K")
	if err != nil {
		t.Fatal(err)
	}
	// Different catalog: extra table.
	dst := snapshotTestDB(t)
	if _, err := dst.CreateTable("Other", s2); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Restore(blob); err == nil {
		t.Fatal("restore into a wider catalog must fail")
	}
	// Different schema on the same table name.
	dst2 := NewDatabase("snaptest")
	if _, err := dst2.CreateTable("Items", s2); err != nil {
		t.Fatal(err)
	}
	if _, err := dst2.Restore(blob); err == nil {
		t.Fatal("restore across schema drift must fail")
	}
	// Truncated blob.
	src2 := snapshotTestDB(t)
	if _, err := src2.Restore(blob[:len(blob)/2]); err == nil {
		t.Fatal("restore of truncated blob must fail")
	}
	if _, err := src2.Restore([]byte("JUNKMAGIC")); err == nil {
		t.Fatal("restore of junk must fail")
	}
}

// TestRestoreSnapshotDuplicateKey: a snapshot repeating a primary key is
// refused, and the table keeps a consistent prefix instead of counting
// slots that were never filled.
func TestRestoreSnapshotDuplicateKey(t *testing.T) {
	tb := snapshotTestDB(t).MustTable("Items")
	rows := tb.snapshotRows()
	dup := []Row{rows[0], rows[1], rows[0], rows[2]}
	var ke *KeyError
	if err := tb.RestoreSnapshot(dup); !errors.As(err, &ke) {
		t.Fatalf("duplicate key: err %v, want a KeyError", err)
	}
	if n, scanned := tb.Len(), tb.Scan().Len(); n != 2 || scanned != 2 {
		t.Fatalf("after refused restore: Len %d, Scan %d rows, want 2", n, scanned)
	}
}

// snapshotV1 encodes the database in the retired DIPDBS1 layout, which
// also stored a row version counter per table.
func snapshotV1(db *Database) []byte {
	names := db.TableNames()
	buf := append([]byte(nil), "DIPDBS1\n"...)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		t := db.MustTable(name)
		rows := t.snapshotRows()
		buf = appendString(buf, t.Name())
		buf = appendString(buf, t.Schema().String())
		buf = binary.AppendUvarint(buf, 99) // the row version counter
		buf = binary.AppendUvarint(buf, uint64(len(rows)))
		for _, row := range rows {
			buf = binary.AppendUvarint(buf, uint64(len(row)))
			for _, v := range row {
				buf = appendValue(buf, v)
			}
		}
	}
	return buf
}

// TestRestoreRefusesV1Blob: a checkpoint written in the old layout is
// refused with an error and leaves the database untouched.
func TestRestoreRefusesV1Blob(t *testing.T) {
	src := snapshotTestDB(t)
	dst := snapshotTestDB(t)
	if err := dst.MustTable("Items").Insert(Row{NewInt(999), NewString("x"), NewFloat(0), NewBool(false), NewTime(time.Unix(0, 1))}); err != nil {
		t.Fatal(err)
	}
	before := dst.MustTable("Items").Len()
	_, err := dst.Restore(snapshotV1(src))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("DIPDBS1 blob: err %v, want a bad-magic error", err)
	}
	if got := dst.MustTable("Items").Len(); got != before {
		t.Fatalf("refused blob changed the table: %d rows, want %d", got, before)
	}
}

func TestConnSnapshotRestore(t *testing.T) {
	srv := NewServer(0)
	db := srv.CreateInstance("snaptest")
	populateSnapshotDB(t, db)
	conn := srv.MustConnect("snaptest")
	blob, err := conn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.MustTable("Items").Insert(Row{NewInt(7777), NewString("z"), NewFloat(0), NewBool(false), NewTime(time.Unix(0, 9))}); err != nil {
		t.Fatal(err)
	}
	before := db.MustTable("Items").Len()
	n, err := conn.Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	if db.MustTable("Items").Len() != before-1 {
		t.Fatalf("restore did not roll back the extra row: %d rows, restored %d", db.MustTable("Items").Len(), n)
	}
}
