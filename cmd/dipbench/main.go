// Command dipbench executes the DIPBench benchmark: it builds the Fig. 1
// scenario topology in-process, deploys the 15 process types on the
// selected integration engine, runs the configured number of benchmark
// periods under the three scale factors, prints the NAVG+ performance
// report and plot, and optionally writes CSV/gnuplot outputs.
//
// Usage:
//
//	dipbench [flags]
//	dipbench -list            print the Table I process type inventory
//	dipbench -fig8            print the Fig. 8 scale factor series
//	dipbench -spec            print the full generated benchmark spec
//
// Flags:
//
//	-d float      scale factor datasize (default 0.05)
//	-t float      scale factor time: 1 tu = 1/t ms (default 1)
//	-f string     scale factor distribution: uniform|skewed (default uniform)
//	-periods int  benchmark periods, 1..100 (default 3)
//	-engine s     federated|pipeline|eai|etl (default federated)
//	-seed n       generation seed (default 42)
//	-fast         dispatch without schedule waiting (functional mode)
//	-remote       database server behind a real HTTP protocol boundary
//	-verify       run the post-phase functional verification
//	-fault-rate p deterministic fault injection probability per external call
//	-fault-seed n fault plan seed (defaults to -seed)
//	-chaos-verify verify the integrated data against a fault-free twin run
//	-columnar s       force vectorized columnar kernels on|off (default: engine preset)
//	-shards n         partition the engine into n region shards, 0..3 (default 0: unsharded)
//	-shard-verify     verify the integrated data against an unsharded twin run
//	-mv-check n       recompute every OrdersMV from scratch every n periods
//	-wal-dir path     enable crash-consistent checkpointing into this directory
//	-checkpoint-every n  snapshot cadence: 1 = every barrier, N = every Nth period end
//	-resume           resume from the latest checkpoint in -wal-dir
//	-crash-at p:S:n   crash deterministically (exit 3) at period p, stream S, occurrence n
//	-state-digest     print the final integrated-state digest (recovery equivalence checks)
//	-quality      print the per-system data quality report after the run
//	-csv path     write the per-process report as CSV
//	-dat path     write the gnuplot data file
//	-records path write the raw per-instance records CSV
//	-series path  write the per-period NAVG series CSV
//	-trace path   write the dispatched-event trace CSV
//	-sched-workers n  worker bound of the shared morsel scheduler (0 = GOMAXPROCS)
//	-sched-share w    run on a dedicated fair-share handle with weight w
//	-cpuprofile path  write a CPU profile of the run
//	-memprofile path  write a heap profile at exit
//
// Ctrl-C cancels a running benchmark gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/processes"
	"repro/internal/quality"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/spec"
)

func main() {
	var (
		d       = flag.Float64("d", 0.05, "scale factor datasize")
		t       = flag.Float64("t", 1.0, "scale factor time (1 tu = 1/t ms)")
		f       = flag.String("f", "uniform", "scale factor distribution: uniform|skewed")
		periods = flag.Int("periods", 3, "benchmark periods (1..100)")
		eng     = flag.String("engine", core.EngineFederated, "integration engine: federated|pipeline|eai|etl")
		seed    = flag.Uint64("seed", 42, "generation seed")
		fast    = flag.Bool("fast", false, "skip schedule waiting (functional mode)")
		remote  = flag.Bool("remote", false, "place the database server behind a real HTTP boundary")
		verify  = flag.Bool("verify", false, "run the post-phase verification")
		fltRate = flag.Float64("fault-rate", 0, "deterministic fault injection probability per external call (0 disables)")
		fltSeed = flag.Uint64("fault-seed", 0, "fault plan seed (defaults to -seed)")
		chaos   = flag.Bool("chaos-verify", false, "after a faulty run, verify the integrated data against a fault-free twin run")
		colr    = flag.String("columnar", "", "force vectorized columnar kernels: on|off (default: engine preset)")
		shards  = flag.Int("shards", 0, "partition the engine into n region shards (0 = unsharded, max 3)")
		shardV  = flag.Bool("shard-verify", false, "verify the integrated data against an unsharded twin run")
		mvEvery = flag.Int("mv-check", 0, "recompute every OrdersMV from scratch every n periods and abort on divergence (0 disables)")
		warmup  = flag.Int("warmup", 0, "discard the first N periods from the metric")
		csvPath = flag.String("csv", "", "write report CSV to this path")
		datPath = flag.String("dat", "", "write gnuplot data file to this path")
		recPath = flag.String("records", "", "write raw per-instance records CSV to this path")
		trcPath = flag.String("trace", "", "write the dispatched-event trace CSV to this path")
		serPath = flag.String("series", "", "write the per-period NAVG series CSV to this path")
		opsPath = flag.String("operators", "", "write the per-operator-kind cost CSV to this path")
		list    = flag.Bool("list", false, "print the Table I process type inventory and exit")
		fig8    = flag.Bool("fig8", false, "print the Fig. 8 scale factor series and exit")
		qual    = flag.Bool("quality", false, "print the per-system data quality report after the run")
		specOut = flag.Bool("spec", false, "print the full generated benchmark specification and exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this path")
		walDir  = flag.String("wal-dir", "", "enable crash-consistent checkpointing into this directory")
		ckptN   = flag.Int("checkpoint-every", 1, "snapshot cadence: 1 = every barrier, N>1 = every Nth period end")
		resume  = flag.Bool("resume", false, "resume from the latest checkpoint in -wal-dir")
		crashAt = flag.String("crash-at", "", "crash deterministically at period:stream:occurrence (e.g. 1:A:3; exit code 3)")
		digest  = flag.Bool("state-digest", false, "print the final integrated-state digest")
		schedW  = flag.Int("sched-workers", 0, "worker bound of the shared morsel scheduler (0 = GOMAXPROCS)")
		schedS  = flag.Float64("sched-share", 0, "run on a dedicated fair-share handle with this weight (0 = default handle)")
	)
	flag.Parse()

	if *schedW > 0 {
		sched.Default().SetMaxWorkers(*schedW)
	}

	if *cpuProf != "" {
		fh, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer fh.Close()
		if err := pprof.StartCPUProfile(fh); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			fh, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer fh.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(fh); err != nil {
				fatal(err)
			}
		}()
	}

	if *specOut {
		if err := spec.Render(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *list {
		printInventory()
		return
	}
	if *fig8 {
		printFig8(*d)
		return
	}

	progress := func(k int, s driver.PeriodStats) {
		if *periods >= 10 && (k+1)%10 == 0 {
			line := fmt.Sprintf("  period %d/%d done (%d events, %d failures",
				k+1, *periods, s.Events, s.Failures)
			if len(s.FailuresByProcess) > 0 {
				ids := make([]string, 0, len(s.FailuresByProcess))
				for id := range s.FailuresByProcess {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				for _, id := range ids {
					line += fmt.Sprintf(" %s:%d", id, s.FailuresByProcess[id])
				}
			}
			fmt.Println(line + ")")
		}
	}
	b, err := core.New(core.Config{
		Datasize:        *d,
		TimeScale:       *t,
		Distribution:    *f,
		Periods:         *periods,
		Seed:            *seed,
		Engine:          *eng,
		FastClock:       *fast,
		Verify:          *verify,
		RemoteDB:        *remote,
		Trace:           *trcPath != "",
		OnPeriod:        progress,
		FaultRate:       *fltRate,
		FaultSeed:       *fltSeed,
		ChaosVerify:     *chaos,
		Columnar:        *colr,
		Shards:          *shards,
		ShardVerify:     *shardV,
		MVCheckEvery:    *mvEvery,
		WALDir:          *walDir,
		CheckpointEvery: *ckptN,
		Resume:          *resume,
		CrashAt:         *crashAt,
		SchedShare:      *schedS,
	})
	if err != nil {
		fatal(err)
	}
	defer b.Close()

	fmt.Printf("DIPBench: engine=%s d=%g t=%g f=%s periods=%d seed=%d",
		*eng, *d, *t, *f, *periods, *seed)
	if *shards > 0 {
		fmt.Printf(" shards=%d", *shards)
	}
	fmt.Println()
	// Ctrl-C cancels the run gracefully (in-flight instances finish).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := b.RunContext(ctx)
	if err != nil {
		if errors.Is(err, fault.ErrCrash) {
			// The injected crash point fired: the WAL tail past the last
			// flush is dropped, the checkpoint directory stays valid, and
			// exit code 3 tells the harness "crashed as instructed".
			fmt.Fprintln(os.Stderr, "dipbench:", err)
			os.Exit(3)
		}
		fatal(err)
	}
	fmt.Printf("executed %d events in %v (%d failures)\n\n",
		res.Stats.Events, res.Stats.Elapsed.Round(1e6), res.Stats.Failures)
	report := res.Report
	if *warmup > 0 {
		fmt.Printf("(metric over periods %d..%d; %d warm-up periods discarded)\n",
			*warmup, *periods-1, *warmup)
		report = b.Monitor().AnalyzeFrom(*warmup)
	}
	fmt.Print(report)
	fmt.Println()
	if err := report.Plot(os.Stdout, *d); err != nil {
		fatal(err)
	}
	if res.Stats.Verification != nil {
		fmt.Println()
		fmt.Print(res.Stats.Verification)
		if !res.Stats.Verification.OK() {
			defer os.Exit(1)
		}
	}
	if *fltRate > 0 {
		retries, trips := uint64(0), uint64(0)
		if r := b.Engine().Resilient(); r != nil {
			retries, trips = r.Stats()
		}
		_, dropped := b.Engine().DeadLetters()
		fmt.Printf("\nFault injection: rate=%g seed=%d injected=%d retries=%d breaker-trips=%d dlq=%d",
			*fltRate, effectiveFaultSeed(*fltSeed, *seed), b.FaultPlan().Injections(),
			retries, trips, b.Engine().DLQDepth())
		if dropped > 0 {
			fmt.Printf(" dlq-dropped=%d", dropped)
		}
		fmt.Println()
	}
	if b.Engine().Options().Columnar {
		if stats := b.Engine().LayoutStats(); len(stats) > 0 {
			ops := make([]string, 0, len(stats))
			for op := range stats {
				ops = append(ops, op)
			}
			sort.Strings(ops)
			fmt.Printf("\nOperator layouts (columnar execution):\n")
			for _, op := range ops {
				c := stats[op]
				fmt.Printf("  %-12s COLUMNAR=%d ROW=%d\n", op, c.Columnar, c.Row)
			}
		}
	}
	if *walDir != "" {
		if s := b.Monitor().Recovery().String(); s != "" {
			fmt.Println()
			fmt.Print(s)
		}
	}
	if *digest {
		fmt.Printf("\nstate digest: %s\n", b.StateDigest())
	}
	if res.Chaos != nil {
		fmt.Println()
		fmt.Print(res.Chaos)
		if !res.Chaos.OK() {
			defer os.Exit(1)
		}
	}
	if res.Shard != nil {
		fmt.Println()
		fmt.Print(res.Shard)
		if !res.Shard.OK() {
			defer os.Exit(1)
		}
	}
	if *qual {
		fmt.Println()
		fmt.Print(quality.Assess(b.Scenario()))
	}
	writeFile := func(path string, write func(*os.File) error) {
		if path == "" {
			return
		}
		fh, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		defer fh.Close()
		if err := write(fh); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	writeFile(*csvPath, func(fh *os.File) error { return report.WriteCSV(fh) })
	writeFile(*datPath, func(fh *os.File) error { return report.WriteGnuplotDat(fh) })
	writeFile(*recPath, func(fh *os.File) error { return b.Monitor().WriteRecordsCSV(fh) })
	writeFile(*serPath, func(fh *os.File) error { return b.Monitor().WritePeriodSeriesCSV(fh) })
	writeFile(*opsPath, func(fh *os.File) error { return b.Monitor().WriteOperatorCSV(fh) })
	if *trcPath != "" && b.Trace() != nil {
		writeFile(*trcPath, func(fh *os.File) error { return b.Trace().WriteCSV(fh) })
	}
}

func printInventory() {
	defs, err := processes.New()
	if err != nil {
		fatal(err)
	}
	fmt.Println("DIPBench process types (Table I):")
	fmt.Printf("%-5s %-4s %-5s %s\n", "Group", "ID", "Event", "Name")
	for _, row := range defs.Inventory() {
		fmt.Printf("%-5s %-4s %-5s %s\n", row.Group, row.ID, row.Event, row.Name)
	}
}

func printFig8(d float64) {
	fmt.Printf("Fig. 8 (left): executed P01 instances per period (d=%g)\n", d)
	series := schedule.Fig8Left(d)
	for k := 0; k < len(series); k += 10 {
		fmt.Printf("  k=%2d: m=%d\n", k, series[k])
	}
	fmt.Println("Fig. 8 (right): P01 event times under time scale factors")
	for _, t := range []float64{0.5, 1, 2} {
		times := schedule.Fig8Right(t, 5)
		fmt.Printf("  t=%g:", t)
		for _, at := range times {
			fmt.Printf(" %v", at)
		}
		fmt.Println()
	}
}

// effectiveFaultSeed mirrors core's fallback: the fault plan derives from
// the generation seed unless a dedicated seed is given.
func effectiveFaultSeed(fltSeed, seed uint64) uint64 {
	if fltSeed != 0 {
		return fltSeed
	}
	return seed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dipbench:", err)
	os.Exit(1)
}
