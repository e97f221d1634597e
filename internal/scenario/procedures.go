package scenario

import (
	"sync"

	rel "repro/internal/relational"
)

// Stored procedures of the consolidation layer. Process P12 invokes
// sp_runMasterDataCleansing, P13 invokes sp_runMovementDataCleansing and
// sp_refreshOrdersMV (on the warehouse); P15 refreshes the marts' views.

// registerCDBProcedures installs the cleansing procedures on the
// consolidated database.
func registerCDBProcedures(db *rel.Database) {
	db.RegisterProcedure("sp_runMasterDataCleansing", spRunMasterDataCleansing)
	db.RegisterProcedure("sp_runMovementDataCleansing", spRunMovementDataCleansing)
}

// registerMVProcedure installs the OrdersMV refresh on a warehouse or
// data-mart instance. Refreshes of one instance are serialized: each one
// truncates and reloads the view.
func registerMVProcedure(db *rel.Database) {
	var mu sync.Mutex
	db.RegisterProcedure("sp_refreshOrdersMV", func(db *rel.Database, _ []rel.Value) (*rel.Relation, error) {
		mu.Lock()
		defer mu.Unlock()
		return refreshOrdersMV(db)
	})
}

// cleansingResult wraps removal counts as a one-row result relation.
func cleansingResult(removed int) (*rel.Relation, error) {
	s := rel.MustSchema([]rel.Column{rel.Col("removed", rel.TypeInt)})
	return rel.NewRelation(s, []rel.Row{{rel.NewInt(int64(removed))}})
}

// spRunMasterDataCleansing eliminates error-prone master data within the
// consolidated database: customers without a name or with malformed phone
// numbers, products without a name or with non-positive prices.
// (Duplicate keys are already collapsed by the upsert-based load paths.)
func spRunMasterDataCleansing(db *rel.Database, _ []rel.Value) (*rel.Relation, error) {
	removed := 0
	n, err := db.MustTable("Customer").Delete(rel.Or(
		rel.ColEq("Name", rel.NewString("")),
		rel.ColEq("Phone", rel.NewString("INVALID")),
	))
	if err != nil {
		return nil, err
	}
	removed += n
	n, err = db.MustTable("Product").Delete(rel.Or(
		rel.ColEq("Name", rel.NewString("")),
		rel.Cmp("Price", rel.OpLe, rel.NewFloat(0)),
	))
	if err != nil {
		return nil, err
	}
	removed += n
	return cleansingResult(removed)
}

// spRunMovementDataCleansing eliminates movement-data errors within the
// consolidated database: orders with corrupted (non-positive) totals and
// orderlines orphaned by that removal.
func spRunMovementDataCleansing(db *rel.Database, _ []rel.Value) (*rel.Relation, error) {
	orders := db.MustTable("Orders")
	bad, err := orders.SelectWhere(rel.Cmp("Totalprice", rel.OpLe, rel.NewFloat(0)))
	if err != nil {
		return nil, err
	}
	removed := 0
	lines := db.MustTable("Orderline")
	for i := 0; i < bad.Len(); i++ {
		key := bad.Get(i, "Ordkey")
		n, err := orders.Delete(rel.ColEq("Ordkey", key))
		if err != nil {
			return nil, err
		}
		removed += n
		n, err = lines.Delete(rel.ColEq("Ordkey", key))
		if err != nil {
			return nil, err
		}
		removed += n
	}
	return cleansingResult(removed)
}

// ComputeOrdersMV computes the OrdersMV contents from scratch off the
// database's Orders fact table, returning the view rows in the stored
// column order. The refresh procedure and the driver's model-vs-stored
// verification share this single definition of the view.
func ComputeOrdersMV(db *rel.Database) (*rel.Relation, error) {
	par := db.Parallelism()
	columnar := db.Columnar()
	orders := db.MustTable("Orders").Scan()
	// Table scans carry no scheduler attribution; tag the fold's input so
	// the whole kernel chain bills to this instance's fair-share handle.
	orders = orders.WithPool(db.Scheduler())
	dateOrd := orders.Schema().MustOrdinal("Orderdate")
	// The extension columns and the closure are shared between the row and
	// the columnar path, so the two variants cannot drift apart.
	timeCols := []rel.Column{
		{Name: "Year", Type: rel.TypeInt, Nullable: true},
		{Name: "Month", Type: rel.TypeInt, Nullable: true},
	}
	timeFn := func(row rel.Row, out []rel.Value) {
		d := row[dateOrd].Time()
		out[0] = rel.NewInt(int64(d.Year()))
		out[1] = rel.NewInt(int64(d.Month()))
	}
	mvGroup := []string{"Year", "Month", "Custkey"}
	mvAggs := []rel.AggSpec{
		{Func: "count", As: "OrderCount"},
		{Func: "sum", Col: "Totalprice", As: "TotalSum"},
	}
	var (
		agg *rel.Relation
		err error
	)
	if columnar {
		// Fused extend+group: the 9-wide extended relation is never
		// materialized (GroupAggExtVec is pinned bit-identical to the
		// row pipeline below).
		agg, _, err = orders.GroupAggExtVec(par, timeCols, timeFn, mvGroup, mvAggs)
	} else {
		var withTime *rel.Relation
		withTime, err = orders.ExtendManyPar(par, timeCols, timeFn)
		if err != nil {
			return nil, err
		}
		agg, err = withTime.GroupByPar(par, mvGroup, mvAggs)
	}
	if err != nil {
		return nil, err
	}
	as := agg.Schema()
	var (
		yOrd = as.MustOrdinal("Year")
		mOrd = as.MustOrdinal("Month")
		cOrd = as.MustOrdinal("Custkey")
		nOrd = as.MustOrdinal("OrderCount")
		tOrd = as.MustOrdinal("TotalSum")
	)
	rows := make([]rel.Row, agg.Len())
	for i := range rows {
		row := agg.Row(i)
		sum := row[tOrd]
		if sum.IsNull() {
			sum = rel.NewFloat(0)
		}
		rows[i] = rel.Row{row[yOrd], row[mOrd], row[cOrd], row[nOrd], sum}
	}
	return rel.NewRelation(db.MustTable("OrdersMV").Schema(), rows)
}

// refreshOrdersMV rebuilds the view from scratch and returns the group
// count as a one-row result.
func refreshOrdersMV(db *rel.Database) (*rel.Relation, error) {
	batch, err := ComputeOrdersMV(db)
	if err != nil {
		return nil, err
	}
	mv := db.MustTable("OrdersMV")
	mv.Truncate()
	if err := mv.InsertAll(batch); err != nil {
		return nil, err
	}
	s := rel.MustSchema([]rel.Column{rel.Col("groups", rel.TypeInt)})
	return rel.NewRelation(s, []rel.Row{{rel.NewInt(int64(batch.Len()))}})
}
