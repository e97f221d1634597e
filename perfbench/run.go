package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/driver"
	"repro/internal/monitor"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/schema"
)

// Options parameterize one measured run of a workload.
type Options struct {
	Seed    uint64
	Periods int
	// Traced adds the samplers during the run and the probes after it,
	// and derives the per-layer metrics.
	Traced bool
	// Scratch holds the WAL directories and probe output.
	Scratch string
	// damage, when set, runs after the work phase and before the
	// verification; the self-test forces a verification failure with it.
	damage func(*core.Benchmark)
}

// Outcome is what one run measured and checked.
type Outcome struct {
	Metrics   map[string]Metric
	Correct   bool
	Attempted int
	Failed    int
	Digest    string
	// Instances counts each process type's instances over the warm
	// periods (traced run only).
	Instances map[string]int
	// WallS spans the main run from its first instance start to its last
	// instance end; the traced run's overhead is measured on it.
	WallS float64
	// Lines is the human-readable report.
	Lines []string
}

func (o *Outcome) set(name string, v float64, unit string) {
	o.Metrics[name] = Metric{Value: v, Unit: unit}
}

func (o *Outcome) printf(format string, args ...any) {
	o.Lines = append(o.Lines, fmt.Sprintf(format, args...))
}

// config is the facade configuration of a workload.
func (w Workload) config(seed uint64, periods int) core.Config {
	return core.Config{
		Datasize: w.D, TimeScale: w.T, Distribution: "uniform",
		Periods: periods, Seed: seed, Engine: w.Engine,
		RemoteDB: w.Remote, FastClock: w.Fast,
	}
}

func (w Workload) scale() schedule.ScaleFactors {
	return schedule.ScaleFactors{Datasize: w.D, Time: w.T, Dist: datagen.Uniform}
}

// Run executes the workload once and derives its metrics.
func Run(ctx context.Context, w Workload, o Options) (*Outcome, error) {
	out := &Outcome{Metrics: make(map[string]Metric)}
	cfg := w.config(o.Seed, o.Periods)
	cfg.Trace = true
	walDir := ""
	if w.WAL {
		walDir = filepath.Join(o.Scratch, "wal-main")
		cfg.WALDir = walDir
	}
	var (
		tr  *tracer
		b   *core.Benchmark
		err error
	)
	if o.Traced {
		if tr, err = startTracer(); err != nil {
			return nil, err
		}
		defer tr.stop()
		// The period hook reads cumulative counters between periods; b is
		// assigned before RunContext calls it.
		cfg.OnPeriod = func(int, driver.PeriodStats) { tr.periodEnd(b.Scenario()) }
	}
	schedBefore := sched.DefaultHandle().Stats()
	runtime.GC()
	cpu0, err := processCPU()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	b, err = core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: build stack: %w", w.Name, err)
	}
	defer b.Close()
	res, err := b.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", w.Name, err)
	}
	if tr != nil {
		tr.stop()
	}
	cpu, err := processCPU()
	if err != nil {
		return nil, err
	}
	rssMB, err := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}

	records := b.Monitor().Records()
	periods := res.Stats.Periods
	if periods < 2 {
		return nil, fmt.Errorf("%s: ran %d periods, need a cold and a warm one", w.Name, periods)
	}
	agg := aggregate(records, periods)
	out.WallS = agg[periods-1].all.end.Sub(agg[0].all.start).Seconds()

	var warmPeriod, warmCD, warmAB, warmC, warmD, warmGap, warmCc, warmCm, warmCp []float64
	for k := 1; k < periods; k++ {
		warmPeriod = append(warmPeriod, agg[k].all.end.Sub(agg[k-1].all.end).Seconds())
		warmGap = append(warmGap, agg[k].all.start.Sub(agg[k-1].all.end).Seconds())
		warmCD = append(warmCD, agg[k].cd.seconds())
		warmAB = append(warmAB, agg[k].ab.seconds())
		warmC = append(warmC, agg[k].c.seconds())
		warmD = append(warmD, agg[k].d.seconds())
		warmCc = append(warmCc, agg[k].cdCc.Seconds())
		warmCm = append(warmCm, agg[k].cdCm.Seconds())
		warmCp = append(warmCp, agg[k].cdCp.Seconds())
	}

	// E1 latency is timed from each event's deadline; under the fast
	// clock every event of a stream group is due at the group's release.
	sf := w.scale()
	var late []float64
	latBy := make([][]float64, periods)
	eventsWarm := 0
	for _, e := range b.Trace().Events() {
		if e.Period > 0 {
			eventsWarm++
		}
		if !isE1(e.Process) || e.Period >= periods {
			continue
		}
		var due time.Duration
		if !w.Fast {
			due = sf.TU(e.ScheduledTU)
		}
		late = append(late, ms(e.Dispatched-due))
		latBy[e.Period] = append(latBy[e.Period], ms(e.Completed-due))
	}
	// Latency percentiles are taken per period and summarized over the
	// warm periods without their extremes (p50 by trimmed mean, the tails
	// by median), so one period hit by a GC or CPU-steal burst does not
	// decide the run.
	var p50, p90, p99 []float64
	warmE1 := 0
	for _, l := range latBy[1:] {
		p50 = append(p50, quantile(l, 0.50))
		p90 = append(p90, quantile(l, 0.90))
		p99 = append(p99, quantile(l, 0.99))
		warmE1 += len(l)
	}
	for k := range latBy {
		out.printf("period %d: wall %.3f s, A/B %.3f s, C %.3f s, D %.3f s, C+D %.3f s, E1 p50 %.3f p90 %.3f p99 %.3f max %.3f ms",
			k, agg[k].all.seconds(), agg[k].ab.seconds(), agg[k].c.seconds(), agg[k].d.seconds(), agg[k].cd.seconds(),
			quantile(latBy[k], 0.5), quantile(latBy[k], 0.9), quantile(latBy[k], 0.99), quantile(latBy[k], 1))
	}

	out.set("setup_s", agg[0].all.start.Sub(t0).Seconds(), "s")
	out.set("cold_period_s", agg[0].all.seconds(), "s")
	out.set("period_s", trimmedMean(warmPeriod), "s")
	out.set("peak_rss_mb", rssMB, "MB")
	out.set("cpu_s", cpu-cpu0, "s")
	out.printf("%s: seed=%d periods=%d events=%d e1-events warm=%d cold=%d",
		w.Name, o.Seed, periods, res.Stats.Events, warmE1, len(latBy[0]))

	// Verification runs after timing stopped, on the last period.
	if o.damage != nil {
		o.damage(b)
	}
	gen, err := datagen.New(datagen.Config{Seed: o.Seed, Datasize: w.D, Dist: datagen.Uniform, Period: periods - 1})
	if err != nil {
		return nil, fmt.Errorf("%s: verification generator: %w", w.Name, err)
	}
	checks := append(driver.Verify(b.Scenario(), gen, sf).Checks, driver.VerifyMV(b.Scenario()).Checks...)
	verified := true
	for _, c := range checks {
		if !c.OK {
			verified = false
			out.printf("verification FAIL %s: %s", c.Name, c.Info)
		}
	}
	out.printf("verification: %d checks, passed=%v", len(checks), verified)
	out.Attempted = res.Stats.Events
	out.Failed = res.Stats.Failures
	if !verified {
		out.Failed++
	}
	out.Correct = verified && res.Stats.Failures == 0
	out.Digest = b.StateDigest()
	out.printf("state digest: %s", out.Digest)
	out.set("failed_share", float64(out.Failed)/float64(out.Attempted), "share")

	if !o.Traced {
		return out, nil
	}

	// Per-layer metrics: the traced run only.
	warm := float64(periods - 1)
	out.set("driver.stream_ab_cold_s", agg[0].ab.seconds(), "s")
	out.set("driver.stream_ab_s", trimmedMean(warmAB), "s")
	out.set("driver.stream_c_s", trimmedMean(warmC), "s")
	out.set("driver.stream_d_s", trimmedMean(warmD), "s")
	out.set("driver.dwh_refresh_s", trimmedMean(warmCD), "s")
	out.set("driver.period_gap_s", trimmedMean(warmGap), "s")
	out.set("driver.dispatch_late_p99_ms", quantile(late, 0.99), "ms")
	out.set("driver.e1_p50_ms", trimmedMean(p50), "ms")
	out.set("driver.e1_p90_ms", median(p90), "ms")
	out.set("driver.e1_p99_ms", median(p99), "ms")
	out.set("driver.e1_cold_p50_ms", quantile(latBy[0], 0.50), "ms")
	out.set("driver.e1_cold_p99_ms", quantile(latBy[0], 0.99), "ms")
	out.set("driver.events", float64(eventsWarm)/warm, "count")

	var e1Cc, e1Cp []float64
	for _, r := range records {
		if isE1(r.Process) && r.Err == nil {
			e1Cc = append(e1Cc, ms(r.Cc))
			e1Cp = append(e1Cp, ms(r.Cp))
		}
	}
	out.set("monitor.e1_cc_p50_ms", quantile(e1Cc, 0.5), "ms")
	out.set("monitor.e1_cp_p50_ms", quantile(e1Cp, 0.5), "ms")
	out.set("monitor.cd_cc_s", trimmedMean(warmCc), "s")
	out.set("monitor.cd_cp_s", trimmedMean(warmCp), "s")
	out.set("monitor.cm_s", trimmedMean(warmCm), "s")
	for _, p := range processIDs {
		v := 0.0
		if st := res.Report.ByProcess(p); st != nil {
			v = st.NAVGPlus
		}
		out.set("monitor.navgplus."+p+"_tu", v, "tu")
	}
	operatorMetrics(out, b.Monitor(), w.T, float64(periods))
	out.Instances = make(map[string]int)
	for _, r := range records {
		if r.Period > 0 {
			out.Instances[r.Process]++
		}
	}
	out.printf("instances per process over %d warm periods: %v", periods-1, out.Instances)

	instances, builds := b.Engine().Stats()
	out.set("engine.instances", float64(instances)/float64(periods), "count")
	// The federated engine builds a plan per instance, sometimes more than
	// one; its hit share is 0, not negative.
	out.set("engine.plan_cache_hit", max(0, 1-float64(builds)/float64(instances)), "share")
	var row, col uint64
	for _, c := range b.Engine().LayoutStats() {
		row += c.Row
		col += c.Columnar
	}
	out.set("engine.columnar_share", share(float64(col), float64(row+col)), "share")

	s := res.Report.Sched
	if s == nil {
		s = &monitor.SchedStats{}
	}
	tasks := float64(s.CallerTasks-schedBefore.CallerTasks) + float64(s.WorkerTasks-schedBefore.WorkerTasks)
	out.set("sched.sets", float64(s.Sets-schedBefore.Submitted)/float64(periods), "count")
	out.set("sched.inline", float64(s.Inline-schedBefore.Inline)/float64(periods), "count")
	out.set("sched.worker_share", share(float64(s.WorkerTasks-schedBefore.WorkerTasks), tasks), "share")
	out.set("sched.steals", float64(s.Stolen-schedBefore.Stolen)/float64(periods), "count")

	if err := checkpointMetrics(out, b, walDir, float64(periods)); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	tr.metrics(out, warm)
	out.set("relational.source_rows", float64(b.Scenario().TotalSourceRows()), "count")
	out.set("relational.dwh_orders", float64(b.Scenario().DB(schema.SysDWH).MustTable("Orders").Len()), "count")

	if err := probes(out, w, o.Seed); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	coldExcess := agg[0].all.seconds() - trimmedMean(warmPeriod)
	abExcess := agg[0].ab.seconds() - trimmedMean(warmAB)
	out.printf("cold excess: cold_period_s - period_s = %.3f s, of which stream A/B %.3f s (%.0f %%)",
		coldExcess, abExcess, 100*share(abExcess, coldExcess))
	return out, nil
}

// SetupSample builds a fresh stack and times core.New to its first
// instance start, read from the monitor's record. The run is cancelled as
// soon as an instance is active. The stack is returned open: a set-up
// sample runs in a process of its own, which exits right after it.
func SetupSample(ctx context.Context, w Workload, o Options) (float64, *core.Benchmark, error) {
	cfg := w.config(o.Seed, o.Periods)
	cfg.Trace = true
	if w.WAL {
		cfg.WALDir = filepath.Join(o.Scratch, "wal-setup")
	}
	t0 := time.Now()
	b, err := core.New(cfg)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: set-up sample: %w", w.Name, err)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for b.Monitor().Active() == 0 && ctx.Err() == nil {
			<-tick.C
		}
		cancel()
	}()
	_, err = b.RunContext(ctx)
	cancel()
	<-watched
	if err != nil && !errors.Is(err, context.Canceled) {
		return 0, b, fmt.Errorf("%s: set-up sample: %w", w.Name, err)
	}
	agg := aggregate(b.Monitor().Records(), 1)
	if agg[0].all.start.IsZero() {
		return 0, b, fmt.Errorf("%s: set-up sample recorded no instance", w.Name)
	}
	return agg[0].all.start.Sub(t0).Seconds(), b, nil
}

// window is the span of a set of instance records.
type window struct{ start, end time.Time }

func (w *window) add(r *monitor.Record) {
	if w.start.IsZero() || r.Start.Before(w.start) {
		w.start = r.Start
	}
	if r.End.After(w.end) {
		w.end = r.End
	}
}

func (w window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// periodAgg collects one period's instance records.
type periodAgg struct {
	all, ab, c, d, cd window
	// Cost categories of the warehouse and mart instances (streams C, D).
	cdCc, cdCm, cdCp time.Duration
}

// aggregate groups the monitor's records by period.
func aggregate(records []*monitor.Record, periods int) []periodAgg {
	agg := make([]periodAgg, periods)
	for _, r := range records {
		if r.Period < 0 || r.Period >= periods {
			continue
		}
		a := &agg[r.Period]
		a.all.add(r)
		switch streamOf(r.Process) {
		case "ab":
			a.ab.add(r)
		case "c":
			a.c.add(r)
		case "d":
			a.d.add(r)
		}
		if streamOf(r.Process) != "ab" {
			a.cd.add(r)
			a.cdCc += r.Cc
			a.cdCm += r.Cm
			a.cdCp += r.Cp
		}
	}
	return agg
}

// operatorMetrics reports the monitor's per-operator-kind breakdown
// summed over each process group, per period.
func operatorMetrics(out *Outcome, mon *monitor.Monitor, t, periods float64) {
	type cell struct{ tu, n float64 }
	cells := make(map[string]cell)
	for _, p := range processIDs {
		g := "ab"
		if isE1(p) {
			g = "e1"
		} else if streamOf(p) != "ab" {
			g = "cd"
		}
		for _, st := range mon.OperatorBreakdown(p) {
			c := cells[g+"."+st.Kind]
			c.tu += st.TotalTU
			c.n += float64(st.Executions)
			cells[g+"."+st.Kind] = c
		}
	}
	var seen []string
	for _, g := range []string{"e1", "ab", "cd"} {
		for _, k := range mtmKinds[g] {
			c := cells[g+"."+k]
			// 1 tu = 1/t ms.
			out.set("mtm."+g+"."+k+"_s", c.tu/t/1000/periods, "s")
			out.set("mtm."+g+"."+k+"_n", c.n/periods, "count")
		}
	}
	for key, c := range cells {
		seen = append(seen, fmt.Sprintf("%s=%.3fs/%.0f", key, c.tu/t/1000/periods, c.n/periods))
	}
	sort.Strings(seen)
	out.printf("operator kinds per period: %s", strings.Join(seen, " "))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
