package scenario

import (
	"testing"
	"time"

	rel "repro/internal/relational"
	"repro/internal/schema"
)

func benchSeedOrders(b *testing.B, t *rel.Table, n int) {
	b.Helper()
	rows := make([]rel.Row, n)
	for i := range rows {
		rows[i] = rel.Row{
			rel.NewInt(int64(i)),
			rel.NewInt(int64(1 + i%199)),
			rel.NewInt(int64(1 + i%11)),
			rel.NewTime(time.Date(2006+i%2, time.Month(1+i%12), 1+i%28, 0, 0, 0, 0, time.UTC)),
			rel.NewString("O"),
			rel.NewString("3-MEDIUM"),
			rel.NewFloat(100.5 * float64(1+i%97)),
		}
	}
	batch, err := rel.NewRelation(t.Schema(), rows)
	if err != nil {
		b.Fatal(err)
	}
	if err := t.InsertAll(batch); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkMVFold(b *testing.B) {
	s, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = s.Close() })
	db := s.DB(schema.SysDWH)
	benchSeedOrders(b, db.MustTable("Orders"), 20500)
	for _, mode := range []string{"row", "columnar"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			db.SetColumnar(mode == "columnar")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := ComputeOrdersMV(db)
				if err != nil || out.Len() == 0 {
					b.Fatal(err)
				}
			}
		})
	}
}
