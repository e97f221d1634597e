package driver

import (
	"fmt"
	"sort"
	"strings"

	rel "repro/internal/relational"
	"repro/internal/scenario"
	"repro/internal/schema"
)

// Materialized-view verification: a stored OrdersMV must equal the view
// recomputed from scratch off the current fact table. The check renders
// both sides canonically (rows sorted), so it is insensitive to physical
// row order but exact on every value, including the float sums.

// mvSystems are the systems carrying an OrdersMV.
func mvSystems() []string {
	out := []string{schema.SysDWH}
	for _, v := range schema.Marts {
		out = append(out, v.Name)
	}
	sort.Strings(out)
	return out
}

// canonicalRelation renders a relation's rows as sorted canonical lines.
func canonicalRelation(r *rel.Relation) string {
	lines := make([]string, r.Len())
	for i := 0; i < r.Len(); i++ {
		lines[i] = canonicalRow(r.Row(i))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// VerifyMV compares every system's stored OrdersMV against the
// from-scratch model recompute.
func VerifyMV(s *scenario.Scenario) *VerificationResult {
	v := &VerificationResult{}
	for _, sys := range mvSystems() {
		name := "OrdersMV model " + sys
		db := s.DB(sys)
		if db == nil {
			v.Checks = append(v.Checks, Check{Name: name, OK: false, Info: "system missing"})
			continue
		}
		model, err := scenario.ComputeOrdersMV(db)
		if err != nil {
			v.Checks = append(v.Checks, Check{Name: name, OK: false, Info: err.Error()})
			continue
		}
		stored := db.MustTable("OrdersMV").Scan()
		ss, ms := canonicalRelation(stored), canonicalRelation(model)
		if ss != ms {
			v.Checks = append(v.Checks, Check{Name: name, OK: false,
				Info: firstDivergence(ss, ms)})
			continue
		}
		v.Checks = append(v.Checks, Check{Name: name, OK: true,
			Info: fmt.Sprintf("%d groups identical to recompute", stored.Len())})
	}
	return v
}

// checkMV runs VerifyMV and converts a failure into a loud error — the
// periodic in-run check aborts the benchmark instead of letting a
// drifted view silently contaminate the remaining periods.
func checkMV(s *scenario.Scenario, period int) error {
	v := VerifyMV(s)
	if v.OK() {
		return nil
	}
	for _, c := range v.Checks {
		if !c.OK {
			return fmt.Errorf("driver: period %d: %s: %s", period, c.Name, c.Info)
		}
	}
	return nil
}
