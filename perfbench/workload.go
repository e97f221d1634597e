package main

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Workload is one benchmark configuration of the stack.
type Workload struct {
	Name   string
	Why    string
	Engine string
	D      float64 // datasize scale factor d
	T      float64 // time scale factor t (1 tu = 1/t ms)
	Fast   bool    // fast clock: each stream group is released at once
	Remote bool    // database calls cross the dbproto HTTP boundary
	WAL    bool    // checkpoint at every barrier into a WAL directory
	// Periods30 is the period count of a 30-second run; --seconds scales
	// it linearly. The count is a fixed function of the seconds, so two
	// commits measure the same periods whatever their speed.
	Periods30 int
}

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []Workload{
	{
		Name:   "bulk-d4",
		Why:    "batch job at d=4 on the pipeline engine with a fast clock and in-process stores: staging inserts, allocation, GC and the C/D kernels, no wire or WAL",
		Engine: core.EnginePipeline, D: 4, T: 1, Fast: true,
		Periods30: 9, // cold 13 s, warm 2.1 s on a 2-vCPU host
	},
	{
		Name:   "paced-fed-d1",
		Why:    "the paper's System A: federated engine, queue-table trigger E1 path, open loop under the Table II schedule at t=1, d=1; E1 latency from each deadline",
		Engine: core.EngineFederated, D: 1, T: 1,
		Periods30: 6, // 5.9 s each
	},
	{
		Name:   "remote-wal-d1",
		Why:    "a dipbenchd remote_db tenant: pipeline engine, every DB call a dbproto HTTP round trip, checkpoint at every barrier, paced at t=1, d=1",
		Engine: core.EnginePipeline, D: 1, T: 1, Remote: true, WAL: true,
		Periods30: 5, // 7.2 s cold, 7.5 s warm
	},
}

// workloadByName looks a workload up.
func workloadByName(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// periodsFor sizes a run of the given seconds: at least one cold and
// three warm periods, so the warm statistics have a middle, and at most
// the benchmark's 100.
func (w Workload) periodsFor(seconds float64) int {
	n := int(math.Round(float64(w.Periods30) * seconds / 30))
	return min(max(n, 4), 100)
}
