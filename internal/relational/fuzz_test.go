package relational_test

import (
	"bytes"
	"testing"

	"repro/internal/datagen"
	rel "repro/internal/relational"
	"repro/internal/scenario"
	"repro/internal/schema"
)

// europeTarget returns an empty database with the catalog of the
// European source systems, the shape the fuzzed blobs restore into.
func europeTarget() *rel.Database {
	db := rel.NewDatabase("fuzz")
	schema.SetupEuropeDB(db)
	return db
}

// scenarioSnapshot loads one period of a small scenario and snapshots a
// European source system: a real checkpoint blob with every value type,
// NULLs and indexed tables.
func scenarioSnapshot(tb testing.TB) []byte {
	tb.Helper()
	s, err := scenario.New(scenario.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	g := datagen.MustNew(datagen.Config{Seed: 42, Datasize: 0.005, Dist: datagen.Uniform})
	if err := s.InitializeSources(g); err != nil {
		tb.Fatal(err)
	}
	blob, err := s.DB(schema.SysBerlinParis).Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// FuzzRestore feeds Database.Restore arbitrary blobs. Checkpoint files
// come from outside the process, so a malformed blob must return an
// error, never panic or hang; a blob that restores must leave a database
// whose own snapshot restores to the same contents.
func FuzzRestore(f *testing.F) {
	blob := scenarioSnapshot(f)
	if n, err := europeTarget().Restore(blob); err != nil || n == 0 {
		f.Fatalf("seed snapshot restored %d rows: %v", n, err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Fuzz(func(t *testing.T, b []byte) {
		db := europeTarget()
		n, err := db.Restore(b)
		if err != nil {
			return
		}
		again, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		dst := europeTarget()
		m, err := dst.Restore(again)
		if err != nil || m != n {
			t.Fatalf("re-restore: %d rows (%v), first restore %d", m, err, n)
		}
		if third, err := dst.Snapshot(); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("snapshot not stable across a restore (%v)", err)
		}
	})
}
