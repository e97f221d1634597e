package processes

import (
	"repro/internal/mtm"
	rel "repro/internal/relational"
	"repro/internal/schema"
)

// Groups C and D: the data-intensive warehouse and data-mart updates.

// validateStep checks a dataset variable against a target schema — the
// VALIDATE steps of P12/P13. A failure aborts the process instance.
func validateStep(in string, target *rel.Schema) mtm.Operator {
	return mtm.Custom{Name: "VALIDATE", Cat: mtm.CostProc, Fn: func(ctx *mtm.Context) error {
		r, err := ctx.Data(in)
		if err != nil {
			return err
		}
		return CheckRows(r, target)
	}}
}

// newP12 builds "Bulk-loading data warehouse master data": invoke
// sp_runMasterDataCleansing, extract the clean (not yet integrated) master
// data, validate, load into the warehouse, and flag the consolidated rows
// as integrated without physically removing them.
func newP12() *mtm.Process {
	notIntegrated := rel.ColEq("Integrated", rel.NewBool(false))
	return &mtm.Process{
		ID: "P12", Name: "Bulk-loading data warehouse master data",
		Group: mtm.GroupC, Event: mtm.E2,
		Ops: []mtm.Operator{
			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpCall,
				Table: "sp_runMasterDataCleansing", Out: "cleansed"},

			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpQuery,
				Table: "Customer", Pred: notIntegrated, Out: "cust"},
			mtm.Projection{In: "cust", Out: "cust_wh",
				Cols: []string{"Custkey", "Name", "Address", "Phone", "City", "Nation", "Region"}},
			validateStep("cust_wh", schema.WHCustomer),
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpUpsert,
				Table: "Customer", In: "cust_wh"},
			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpUpdate,
				Table: "Customer", Pred: notIntegrated,
				Set: map[string]rel.Value{"Integrated": rel.NewBool(true)}},

			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpQuery,
				Table: "Product", Pred: notIntegrated, Out: "prod"},
			mtm.Projection{In: "prod", Out: "prod_wh",
				Cols: []string{"Prodkey", "Name", "Price", "Groupkey"}},
			validateStep("prod_wh", schema.WHProduct),
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpUpsert,
				Table: "Product", In: "prod_wh"},
			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpUpdate,
				Table: "Product", Pred: notIntegrated,
				Set: map[string]rel.Value{"Integrated": rel.NewBool(true)}},
		},
	}
}

// newP13 builds "Bulk-loading data warehouse movement data": invoke
// sp_runMovementDataCleansing, extract/validate/load orders and
// orderlines, refresh the OrdersMV materialized view, and remove the
// loaded movement data from the consolidated database for simple delta
// determination.
func newP13() *mtm.Process {
	return &mtm.Process{
		ID: "P13", Name: "Bulk-loading data warehouse movement data",
		Group: mtm.GroupC, Event: mtm.E2,
		Ops: []mtm.Operator{
			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpCall,
				Table: "sp_runMovementDataCleansing", Out: "cleansed"},

			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpQuery,
				Table: "Orders", Out: "ord"},
			mtm.Projection{In: "ord", Out: "ord_wh",
				Cols: []string{"Ordkey", "Custkey", "Citykey", "Orderdate", "Status", "Priority", "Totalprice"}},
			validateStep("ord_wh", schema.WHOrders),
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpInsert,
				Table: "Orders", In: "ord_wh"},

			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpQuery,
				Table: "Orderline", Out: "line"},
			mtm.Projection{In: "line", Out: "line_wh",
				Cols: []string{"Ordkey", "Pos", "Prodkey", "Quantity", "Extendedprice"}},
			validateStep("line_wh", schema.WHOrderline),
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpInsert,
				Table: "Orderline", In: "line_wh"},

			// First invocation: refresh the materialized view.
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpCall,
				Table: "sp_refreshOrdersMV"},
			// Second invocation: remove the loaded movement data.
			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpDelete, Table: "Orders"},
			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpDelete, Table: "Orderline"},
		},
	}
}

// martCityPred builds the predicate selecting orders whose city belongs to
// the mart's region.
func martCityPred(region string) rel.Predicate {
	var preds []rel.Predicate
	for _, c := range schema.CitiesInRegion(region) {
		preds = append(preds, rel.ColEq("Citykey", rel.NewInt(c.Key)))
	}
	return rel.Or(preds...)
}

// newP14 builds "Refreshing data mart data": subprocess P14_S1 loads all
// master and movement data from the warehouse; three concurrent threads
// then select their region's slice and invoke a per-mart subprocess that
// maps the warehouse schema to the mart schema and loads it.
func newP14() *mtm.Process {
	s1 := &mtm.Process{
		ID: "P14_S1", Name: "Load warehouse data", Group: mtm.GroupD, Event: mtm.E2,
		Ops: []mtm.Operator{
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "Customer", Out: "wh_cust"},
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "Product", Out: "wh_prod"},
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "ProductGroup", Out: "wh_group"},
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "ProductLine", Out: "wh_line"},
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "City", Out: "wh_city"},
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "Nation", Out: "wh_nation"},
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "Region", Out: "wh_region"},
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "Orders", Out: "wh_orders"},
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "Orderline", Out: "wh_lines"},
		},
	}
	branches := make([][]mtm.Operator, 0, len(schema.Marts))
	for _, v := range schema.Marts {
		v := v
		branches = append(branches, []mtm.Operator{
			// Thread = selection operator + subprocess invocation.
			mtm.Selection{In: "wh_cust", Out: v.Name + "_cust",
				Pred: rel.ColEq("Region", rel.NewString(v.Region))},
			mtm.Selection{In: "wh_orders", Out: v.Name + "_orders",
				Pred: martCityPred(v.Region)},
			mtm.Subprocess{Process: newMartLoad(v)},
		})
	}
	return &mtm.Process{
		ID: "P14", Name: "Refreshing data mart data",
		Group: mtm.GroupD, Event: mtm.E2,
		Ops: []mtm.Operator{
			mtm.Subprocess{Process: s1},
			mtm.Fork{Branches: branches},
		},
	}
}

// newMartLoad builds the per-mart subprocess of P14: the schema mapping
// from the warehouse schema to the mart's variant and the load.
func newMartLoad(v schema.MartVariant) *mtm.Process {
	const load = mtm.OpInsert
	pfx := v.Name + "_"
	ops := []mtm.Operator{
		mtm.Invoke{Service: v.Name, Operation: load, Table: "Customer", In: pfx + "cust"},
		mtm.Invoke{Service: v.Name, Operation: load, Table: "Orders", In: pfx + "orders"},
		// Orderlines of the mart's orders (join + projection).
		mtm.Join{Left: "wh_lines", Right: pfx + "orders", Out: pfx + "lines_joined",
			LeftCol: "Ordkey", RightCol: "Ordkey", ClashPrefix: "o_"},
		mtm.Projection{In: pfx + "lines_joined", Out: pfx + "lines",
			Cols: []string{"Ordkey", "Pos", "Prodkey", "Quantity", "Extendedprice"}},
		mtm.Invoke{Service: v.Name, Operation: load, Table: "Orderline", In: pfx + "lines"},
	}
	if v.DenormProducts {
		ops = append(ops,
			mtm.Join{Left: "wh_prod", Right: "wh_group", Out: pfx + "prod_g",
				LeftCol: "Groupkey", RightCol: "Groupkey", ClashPrefix: "g_"},
			mtm.Join{Left: pfx + "prod_g", Right: "wh_line", Out: pfx + "prod_gl",
				LeftCol: "Linekey", RightCol: "Linekey", ClashPrefix: "l_"},
			mtm.RenameData{In: pfx + "prod_gl", Out: pfx + "prod_renamed",
				Mapping: map[string]string{"g_Name": "GroupName", "l_Name": "LineName"}},
			mtm.Projection{In: pfx + "prod_renamed", Out: pfx + "prod",
				Cols: []string{"Prodkey", "Name", "Price", "GroupName", "LineName"}},
			mtm.Invoke{Service: v.Name, Operation: load, Table: "Product", In: pfx + "prod"},
		)
	} else {
		ops = append(ops,
			mtm.Invoke{Service: v.Name, Operation: load, Table: "Product", In: "wh_prod"},
			mtm.Invoke{Service: v.Name, Operation: load, Table: "ProductGroup", In: "wh_group"},
			mtm.Invoke{Service: v.Name, Operation: load, Table: "ProductLine", In: "wh_line"},
		)
	}
	regionPred := func(out string) mtm.Operator {
		return mtm.Selection{In: out, Out: out + "_sel",
			Pred: rel.ColEq("Region", rel.NewString(v.Region))}
	}
	if v.DenormLocations {
		ops = append(ops,
			mtm.Join{Left: "wh_city", Right: "wh_nation", Out: pfx + "loc_n",
				LeftCol: "Nationkey", RightCol: "Nationkey", ClashPrefix: "n_"},
			mtm.Join{Left: pfx + "loc_n", Right: "wh_region", Out: pfx + "loc_nr",
				LeftCol: "Regionkey", RightCol: "Regionkey", ClashPrefix: "r_"},
			mtm.RenameData{In: pfx + "loc_nr", Out: pfx + "loc_renamed",
				Mapping: map[string]string{"Name": "City", "n_Name": "Nation", "r_Name": "Region"}},
			mtm.Projection{In: pfx + "loc_renamed", Out: pfx + "loc_all",
				Cols: []string{"Citykey", "City", "Nation", "Region"}},
			regionPred(pfx+"loc_all"),
			mtm.Invoke{Service: v.Name, Operation: load, Table: "Location",
				In: pfx + "loc_all_sel"},
		)
	} else {
		regionKey := int64(0)
		for _, r := range schema.RegionCatalog {
			if r.Name == v.Region {
				regionKey = r.Key
			}
		}
		var nationPreds, cityPreds []rel.Predicate
		for _, n := range schema.NationCatalog {
			if n.RegionKey == regionKey {
				nationPreds = append(nationPreds, rel.ColEq("Nationkey", rel.NewInt(n.Key)))
			}
		}
		for _, c := range schema.CitiesInRegion(v.Region) {
			cityPreds = append(cityPreds, rel.ColEq("Citykey", rel.NewInt(c.Key)))
		}
		ops = append(ops,
			mtm.Selection{In: "wh_city", Out: pfx + "city", Pred: rel.Or(cityPreds...)},
			mtm.Invoke{Service: v.Name, Operation: load, Table: "City", In: pfx + "city"},
			mtm.Selection{In: "wh_nation", Out: pfx + "nation", Pred: rel.Or(nationPreds...)},
			mtm.Invoke{Service: v.Name, Operation: load, Table: "Nation", In: pfx + "nation"},
			mtm.Selection{In: "wh_region", Out: pfx + "region",
				Pred: rel.ColEq("Regionkey", rel.NewInt(regionKey))},
			mtm.Invoke{Service: v.Name, Operation: load, Table: "Region", In: pfx + "region"},
		)
	}
	return &mtm.Process{
		ID: "P14_" + v.Name, Name: "Load data mart " + v.Name,
		Group: mtm.GroupD, Event: mtm.E2,
		Ops: ops,
	}
}

// newP15 builds "Refreshing data mart materialized views": since there are
// no dependencies between the physical data marts, the three refreshes run
// in parallel.
func newP15() *mtm.Process {
	branches := make([][]mtm.Operator, 0, len(schema.Marts))
	for _, v := range schema.Marts {
		branches = append(branches, []mtm.Operator{
			mtm.Invoke{Service: v.Name, Operation: mtm.OpCall, Table: "sp_refreshOrdersMV"},
		})
	}
	return &mtm.Process{
		ID: "P15", Name: "Refreshing data mart materialized views",
		Group: mtm.GroupD, Event: mtm.E2,
		Ops: []mtm.Operator{
			mtm.Fork{Branches: branches},
		},
	}
}
