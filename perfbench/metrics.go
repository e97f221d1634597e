package main

import (
	"math"
	"sort"
)

// Def names one reported metric. BENCHMARK.json at the repository root
// lists the same names, units and directions; the harness tests keep the
// two in step.
type Def struct {
	Name   string
	Unit   string
	Better string
}

// Metric is one measured value as printed in the result JSON.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics a user of the system sees; the untraced run
// reports exactly these.
var endToEnd = []Def{
	{"setup_s", "s", "lower"},
	{"cold_period_s", "s", "lower"},
	{"period_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// mtmKinds are the (process group, operator kind) cells of the operator
// breakdown the traced run reports: the kinds that carry time in each
// group on every workload.
var mtmKinds = map[string][]string{
	"e1": {"RECEIVE", "INVOKE", "TRANSLATE", "ASSIGN"},
	"ab": {"INVOKE", "TRANSLATE", "CONVERT", "SELECTION", "PROJECTION", "JOIN", "UNION_DISTINCT"},
	"cd": {"INVOKE", "SELECTION", "PROJECTION", "JOIN", "VALIDATE"},
}

// perLayer are the metrics of single layers; the traced run reports
// exactly these.
var perLayer = buildPerLayer()

func buildPerLayer() []Def {
	defs := []Def{
		{"driver.stream_ab_cold_s", "s", "lower"},
		{"driver.stream_ab_s", "s", "lower"},
		{"driver.stream_c_s", "s", "lower"},
		{"driver.stream_d_s", "s", "lower"},
		{"driver.dwh_refresh_s", "s", "lower"},
		{"driver.period_gap_s", "s", "lower"},
		{"driver.dispatch_late_p99_ms", "ms", "lower"},
		{"driver.e1_p50_ms", "ms", "lower"},
		{"driver.e1_p90_ms", "ms", "lower"},
		{"driver.e1_p99_ms", "ms", "lower"},
		{"driver.e1_cold_p50_ms", "ms", "lower"},
		{"driver.e1_cold_p99_ms", "ms", "lower"},
		{"driver.events", "count", "higher"},
		{"scenario.init_s", "s", "lower"},
		{"datagen.source_gen_s", "s", "lower"},
		{"datagen.msg_gen_us", "us", "lower"},
		{"monitor.e1_cc_p50_ms", "ms", "lower"},
		{"monitor.e1_cp_p50_ms", "ms", "lower"},
		{"monitor.cd_cc_s", "s", "lower"},
		{"monitor.cd_cp_s", "s", "lower"},
		{"monitor.cm_s", "s", "lower"},
	}
	for _, p := range processIDs {
		defs = append(defs, Def{"monitor.navgplus." + p + "_tu", "tu", "lower"})
	}
	for _, g := range []string{"e1", "ab", "cd"} {
		for _, k := range mtmKinds[g] {
			defs = append(defs,
				Def{"mtm." + g + "." + k + "_s", "s", "lower"},
				Def{"mtm." + g + "." + k + "_n", "count", "lower"})
		}
	}
	return append(defs,
		Def{"engine.instances", "count", "higher"},
		Def{"engine.plan_cache_hit", "share", "higher"},
		Def{"engine.columnar_share", "share", "higher"},
		Def{"sched.sets", "count", "higher"},
		Def{"sched.inline", "count", "lower"},
		Def{"sched.worker_share", "share", "higher"},
		Def{"sched.steals", "count", "lower"},
		Def{"checkpoint.commits", "count", "lower"},
		Def{"checkpoint.commit_s", "s", "lower"},
		Def{"checkpoint.snapshot_bytes", "bytes", "lower"},
		Def{"wal.bytes", "bytes", "lower"},
		Def{"dbproto.peak_fds", "count", "lower"},
		Def{"ws.queries", "count", "lower"},
		Def{"ws.updates", "count", "lower"},
		Def{"relational.source_rows", "count", "higher"},
		Def{"relational.dwh_orders", "count", "higher"},
		Def{"go.gc_cpu_share", "share", "lower"},
		Def{"go.allocs_per_period", "count", "lower"},
		Def{"go.alloc_mb_per_period", "MB", "lower"},
		Def{"go.gc_cycles", "count", "lower"},
		Def{"trace.overhead_share", "share", "lower"},
		Def{"failed_share", "share", "lower"},
		Def{"digest.distinct", "count", "lower"},
	)
}

// processIDs are the fifteen DIPBench process types (Table I).
var processIDs = []string{
	"P01", "P02", "P03", "P04", "P05", "P06", "P07", "P08",
	"P09", "P10", "P11", "P12", "P13", "P14", "P15",
}

// isE1 reports whether a process type is message-initiated.
func isE1(p string) bool {
	switch p {
	case "P01", "P02", "P04", "P08", "P10":
		return true
	}
	return false
}

// streamOf maps a process type to its stream group: "ab" for the
// concurrent streams A and B, "c" and "d" for the warehouse and mart
// streams.
func streamOf(p string) string {
	switch p {
	case "P12", "P13":
		return "c"
	case "P14", "P15":
		return "d"
	}
	return "ab"
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for empty input). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// trimmedMean is the mean of xs without its lowest and highest value
// (the plain mean for fewer than three values). xs is sorted in place.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if len(xs) >= 3 {
		sort.Float64s(xs)
		xs = xs[1 : len(xs)-1]
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median is quantile 0.5 on a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}
