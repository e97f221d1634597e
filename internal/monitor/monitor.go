// Package monitor implements the Monitor of the DIPBench toolsuite: it
// collects the per-instance cost measurements of the three cost categories
// (communication Cc, internal management Cm, processing Cp), normalizes
// them to be comparable and independent of concurrent process executions,
// and computes the benchmark performance metric
//
//	NAVG+(P) = NAVG(NC(p)) + sigma+(NC(p))
//
// — the average of the normalized costs of a process type's instances plus
// the positive standard deviation, expressed in abstract time units (tu,
// where 1 tu = 1/t milliseconds under time scale factor t).
//
// Cost normalization: the paper requires costs "comparable and independent
// of concurrent process executions" without giving the formula. The
// monitor maintains an activity ledger — a step function of how many
// process instances are concurrently active — and divides each instance's
// measured wall-time costs by the average concurrency during the
// instance's lifetime. For serialized streams this reduces to plain wall
// time; for concurrent streams it removes the inflation caused by
// co-scheduled instances.
package monitor

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mtm"
)

// Monitor collects instance records for one benchmark run.
//
// Locking: the activity ledger (a step function of how many instances run
// concurrently) must stay global — normalization divides by concurrency
// over ALL instances — so it keeps its own small mutex, held only for the
// ledger arithmetic. The finished records are sharded per process type and
// merged on read, and the operator aggregation has a separate lock, so the
// concurrent streams A/B do not funnel every measurement through a single
// mutex.
type Monitor struct {
	timeScale float64 // scale factor t: 1 tu = 1/t ms

	mu        sync.Mutex // guards the activity ledger only
	active    int
	lastEvent time.Time
	area      float64 // integral of active instances over seconds
	started   bool

	seq     atomic.Uint64 // global record order for merge-on-read
	shardMu sync.RWMutex  // guards the shard map (not the shards)
	shards  map[string]*recordShard

	opMu     sync.Mutex
	opTotals map[opKey]*opCell // per (process, operator kind) aggregation

	res *ResilienceStats // retry/trip/DLQ audit of the resilience layer
	rcv *RecoveryStats   // checkpoint/replay audit of crash recovery

	schedStats schedHolder // fair-share scheduler accounting (set at run end)

	restoredMu sync.Mutex // guards the checkpoint-restored ledger seed
	restored   []LedgerEntry
}

// recordShard holds the finished records of one process type.
type recordShard struct {
	mu      sync.Mutex
	records []*Record
}

// Record is the measurement of one finished process instance.
type Record struct {
	seq     uint64 // global finish order (merge-on-read key)
	Process string
	Period  int
	// Shard is the 1-based region shard that executed the instance; 0 for
	// unsharded engines and the coordinating parent. The sharded ledger is
	// merged on read exactly like the per-process shards — Records()
	// interleaves every engine's instances in global finish order — and
	// Analyze additionally breaks the totals down per shard.
	Shard   int
	Start   time.Time
	End     time.Time
	Cc      time.Duration // communication costs
	Cm      time.Duration // internal management costs
	Cp      time.Duration // processing costs
	AvgConc float64       // average concurrency during the lifetime
	Err     error         // non-nil if the instance failed
}

// Total returns the sum of the three cost categories.
func (r *Record) Total() time.Duration { return r.Cc + r.Cm + r.Cp }

// Normalized returns the normalized cost NC(p) in milliseconds.
func (r *Record) Normalized() float64 {
	conc := r.AvgConc
	if conc < 1 {
		conc = 1
	}
	return float64(r.Total().Nanoseconds()) / 1e6 / conc
}

// New creates a monitor for the given time scale factor t (>0).
func New(timeScale float64) *Monitor {
	if timeScale <= 0 {
		timeScale = 1
	}
	return &Monitor{timeScale: timeScale, shards: make(map[string]*recordShard),
		res: NewResilienceStats(), rcv: NewRecoveryStats()}
}

// shard returns (creating on demand) the process type's record shard. The
// steady state takes only a read lock.
func (m *Monitor) shard(process string) *recordShard {
	m.shardMu.RLock()
	s := m.shards[process]
	m.shardMu.RUnlock()
	if s != nil {
		return s
	}
	m.shardMu.Lock()
	defer m.shardMu.Unlock()
	if s := m.shards[process]; s != nil {
		return s
	}
	s = &recordShard{}
	m.shards[process] = s
	return s
}

// addRecord stamps the record's global order and files it in its shard.
func (m *Monitor) addRecord(rec *Record) {
	rec.seq = m.seq.Add(1)
	s := m.shard(rec.Process)
	s.mu.Lock()
	s.records = append(s.records, rec)
	s.mu.Unlock()
}

// TimeScale returns the configured scale factor t.
func (m *Monitor) TimeScale() float64 { return m.timeScale }

// advance integrates the activity ledger up to now. Caller holds mu.
func (m *Monitor) advance(now time.Time) {
	if m.started {
		m.area += float64(m.active) * now.Sub(m.lastEvent).Seconds()
	}
	m.lastEvent = now
	m.started = true
}

// InstanceRecorder tracks one running process instance. It implements
// mtm.CostRecorder for the operator-level cost intervals and adds the
// engine-level management costs.
type InstanceRecorder struct {
	m         *Monitor
	rec       *Record
	startArea float64
	mu        sync.Mutex
	finished  bool
}

// StartInstance begins measuring a process instance.
func (m *Monitor) StartInstance(process string, period int) *InstanceRecorder {
	return m.StartInstanceShard(process, period, 0)
}

// StartInstanceShard is StartInstance with the executing region shard
// stamped on the record (0 = unsharded / coordinator). The activity
// ledger stays global across shards: normalization must still remove the
// inflation caused by co-scheduled instances, wherever they ran.
func (m *Monitor) StartInstanceShard(process string, period, shard int) *InstanceRecorder {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advance(now)
	m.active++
	return &InstanceRecorder{
		m:         m,
		rec:       &Record{Process: process, Period: period, Shard: shard, Start: now},
		startArea: m.area,
	}
}

// Period returns the benchmark period the instance is recorded under.
func (r *InstanceRecorder) Period() int { return r.rec.Period }

// Record implements mtm.CostRecorder.
func (r *InstanceRecorder) Record(cat mtm.Cost, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch cat {
	case mtm.CostComm:
		r.rec.Cc += d
	case mtm.CostMgmt:
		r.rec.Cm += d
	case mtm.CostProc:
		r.rec.Cp += d
	}
}

// Finish completes the instance, computing its average concurrency.
// err records an instance failure. Finish is idempotent.
func (r *InstanceRecorder) Finish(err error) {
	now := time.Now()
	r.mu.Lock()
	if r.finished {
		r.mu.Unlock()
		return
	}
	r.finished = true
	r.rec.End = now
	r.rec.Err = err
	r.mu.Unlock()

	m := r.m
	m.mu.Lock()
	m.advance(now)
	m.active--
	lifetime := now.Sub(r.rec.Start).Seconds()
	if lifetime > 0 {
		r.rec.AvgConc = (m.area - r.startArea) / lifetime
	} else {
		r.rec.AvgConc = float64(m.active + 1)
	}
	m.mu.Unlock()
	m.addRecord(r.rec)
}

// Records returns a snapshot of all finished instance records, merged
// from the per-process shards in global finish order.
func (m *Monitor) Records() []*Record {
	m.shardMu.RLock()
	shards := make([]*recordShard, 0, len(m.shards))
	for _, s := range m.shards {
		shards = append(shards, s)
	}
	m.shardMu.RUnlock()
	var out []*Record
	for _, s := range shards {
		s.mu.Lock()
		out = append(out, s.records...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Active returns the number of currently running instances.
func (m *Monitor) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active
}

// msToTU converts milliseconds to abstract time units: 1 tu = 1/t ms.
func (m *Monitor) msToTU(ms float64) float64 { return ms * m.timeScale }

// ProcessStats is the aggregated result of one process type.
type ProcessStats struct {
	Process   string
	Instances int
	Failures  int
	// NAVG is the average of the normalized costs, in tu.
	NAVG float64
	// StdDev is the (positive) standard deviation of the normalized
	// costs, in tu.
	StdDev float64
	// NAVGPlus is the benchmark metric NAVG+ = NAVG + sigma+, in tu.
	NAVGPlus float64
	// Category breakdown (averages over instances, in tu).
	AvgCc, AvgCm, AvgCp float64
	// AvgConc is the mean of the instances' average concurrency.
	AvgConc float64
	// P50 and P95 are the median and 95th-percentile normalized costs
	// (nearest-rank), in tu.
	P50, P95 float64
}

// ShardStats aggregates the instances one region shard executed (shard 0
// collects the unsharded/coordinator instances).
type ShardStats struct {
	Shard     int
	Instances int
	Failures  int
	// TotalTU is the sum of the instances' normalized costs, in tu — the
	// load-balance view across shards.
	TotalTU float64
}

// Report is the full benchmark analysis.
type Report struct {
	TimeScale float64
	Stats     []ProcessStats // ordered by process id

	// Shards breaks the executed instances down per region shard (empty
	// unless some instance ran on a shard).
	Shards []ShardStats

	// Resilience totals (0 when the resilience layer is off).
	Retries     uint64
	Trips       uint64
	DeadLetters uint64

	// Recovery totals (zero when the run neither checkpointed nor
	// resumed from one).
	Replayed    int    // WAL records replayed during recovery
	DedupHits   uint64 // re-executions recognized as pre-crash acks
	Checkpoints uint64 // checkpoints committed during the run

	// Sched is the run's fair-share scheduler accounting (nil when the
	// run never reported one — e.g. a purely sequential engine).
	Sched *SchedStats
}

// Analyze aggregates all finished records into the benchmark report.
// Failed instances count toward Failures but not toward the metric.
func (m *Monitor) Analyze() *Report { return m.AnalyzeFrom(0) }

// AnalyzeFrom aggregates only the records of periods >= minPeriod —
// discarding warm-up periods (plan-cache population, allocator ramp-up)
// from the metric, a standard benchmark practice.
func (m *Monitor) AnalyzeFrom(minPeriod int) *Report {
	records := m.Records()
	byProc := make(map[string][]*Record)
	for _, r := range records {
		if r.Period < minPeriod {
			continue
		}
		byProc[r.Process] = append(byProc[r.Process], r)
	}
	ids := make([]string, 0, len(byProc))
	for id := range byProc {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	rep := &Report{TimeScale: m.timeScale}
	for _, id := range ids {
		recs := byProc[id]
		st := ProcessStats{Process: id, Instances: len(recs)}
		var normed []float64
		var sumCc, sumCm, sumCp, sumConc float64
		ok := 0
		for _, r := range recs {
			if r.Err != nil {
				st.Failures++
				continue
			}
			ok++
			normed = append(normed, m.msToTU(r.Normalized()))
			sumCc += m.msToTU(float64(r.Cc.Nanoseconds()) / 1e6)
			sumCm += m.msToTU(float64(r.Cm.Nanoseconds()) / 1e6)
			sumCp += m.msToTU(float64(r.Cp.Nanoseconds()) / 1e6)
			sumConc += r.AvgConc
		}
		if ok > 0 {
			st.NAVG = mean(normed)
			st.StdDev = stddev(normed, st.NAVG)
			st.NAVGPlus = st.NAVG + st.StdDev
			st.AvgCc = sumCc / float64(ok)
			st.AvgCm = sumCm / float64(ok)
			st.AvgCp = sumCp / float64(ok)
			st.AvgConc = sumConc / float64(ok)
			st.P50 = percentileOf(normed, 50)
			st.P95 = percentileOf(normed, 95)
		}
		rep.Stats = append(rep.Stats, st)
	}
	sharded := false
	byShard := make(map[int]*ShardStats)
	for _, r := range records {
		if r.Period < minPeriod {
			continue
		}
		if r.Shard != 0 {
			sharded = true
		}
		ss := byShard[r.Shard]
		if ss == nil {
			ss = &ShardStats{Shard: r.Shard}
			byShard[r.Shard] = ss
		}
		ss.Instances++
		if r.Err != nil {
			ss.Failures++
		} else {
			ss.TotalTU += m.msToTU(r.Normalized())
		}
	}
	if sharded {
		shardIDs := make([]int, 0, len(byShard))
		for id := range byShard {
			shardIDs = append(shardIDs, id)
		}
		sort.Ints(shardIDs)
		for _, id := range shardIDs {
			rep.Shards = append(rep.Shards, *byShard[id])
		}
	}
	rep.Retries, rep.Trips, rep.DeadLetters = m.res.Totals()
	rep.Replayed, rep.DedupHits, rep.Checkpoints = m.rcv.Totals()
	rep.Sched = m.schedStats.get()
	return rep
}

// ByProcess returns the stats row for a process id, or nil.
func (r *Report) ByProcess(id string) *ProcessStats {
	for i := range r.Stats {
		if r.Stats[i].Process == id {
			return &r.Stats[i]
		}
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// percentileOf returns the nearest-rank p-th percentile of xs (which is
// copied, not mutated); 0 for empty input.
func percentileOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// stddev computes the sample standard deviation (n-1 denominator; 0 for a
// single observation).
func stddev(xs []float64, mu float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var s float64
	for _, x := range xs {
		d := x - mu
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// String renders the report as the textual DIPBench performance table.
func (r *Report) String() string {
	out := fmt.Sprintf("DIPBench Performance Report [sfTime=%g]\n", r.TimeScale)
	out += fmt.Sprintf("%-6s %6s %5s %12s %12s %10s %10s %10s %8s\n",
		"Proc", "Inst", "Fail", "NAVG[tu]", "NAVG+[tu]", "Cc[tu]", "Cm[tu]", "Cp[tu]", "Conc")
	for _, s := range r.Stats {
		out += fmt.Sprintf("%-6s %6d %5d %12.2f %12.2f %10.2f %10.2f %10.2f %8.2f\n",
			s.Process, s.Instances, s.Failures, s.NAVG, s.NAVGPlus, s.AvgCc, s.AvgCm, s.AvgCp, s.AvgConc)
	}
	if len(r.Shards) > 0 {
		out += "Shards:"
		for _, s := range r.Shards {
			label := fmt.Sprintf("shard %d", s.Shard)
			if s.Shard == 0 {
				label = "coordinator"
			}
			out += fmt.Sprintf(" [%s: %d inst %d fail %.1f tu]", label, s.Instances, s.Failures, s.TotalTU)
		}
		out += "\n"
	}
	if r.Retries > 0 || r.Trips > 0 || r.DeadLetters > 0 {
		out += fmt.Sprintf("Resilience: retries=%d breaker-trips=%d dead-letters=%d\n",
			r.Retries, r.Trips, r.DeadLetters)
	}
	if r.Replayed > 0 || r.DedupHits > 0 || r.Checkpoints > 0 {
		out += fmt.Sprintf("Recovery: replayed=%d dedup-hits=%d checkpoints=%d\n",
			r.Replayed, r.DedupHits, r.Checkpoints)
	}
	out += r.Sched.render()
	return out
}
