package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/scenario"
	"repro/internal/schedule"
	x "repro/internal/xmlmsg"
)

// The samplers of the traced run. They run only in the traced run and
// read only public counters: runtime/metrics, /proc/self and the web
// services' call counters.

// rtNames are the runtime/metrics the traced run reads.
var rtNames = [...]string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// sample is one reading of the cumulative counters.
type sample struct {
	rt               [len(rtNames)]float64 // rtNames, in order
	wsQuery, wsWrite uint64
}

func readSample(scn *scenario.Scenario) sample {
	var s sample
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	for i, m := range ms {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			s.rt[i] = float64(m.Value.Uint64())
		case metrics.KindFloat64:
			s.rt[i] = m.Value.Float64()
		}
	}
	if scn != nil {
		for _, name := range scenario.WebServiceSystems {
			q, u := scn.WS.Service(name).Stats()
			s.wsQuery += q
			s.wsWrite += u
		}
	}
	return s
}

// tracer samples the process while the traced run executes: the open fd
// count on a short tick, and the cumulative counters at every period end.
type tracer struct {
	start    sample
	peakFDs  atomic.Int64
	quit     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// The fd sampler re-reads one directory handle into one buffer, so a
	// tick allocates nothing and the allocation counters stay exact.
	fdDir *os.File
	dents []byte

	mu      sync.Mutex
	periods []sample // one per completed period
}

// fdTick is the fd sampler's period.
const fdTick = 5 * time.Millisecond

func startTracer() (*tracer, error) {
	dir, err := os.Open("/proc/self/fd")
	if err != nil {
		return nil, fmt.Errorf("fd sampler: %w", err)
	}
	t := &tracer{
		start: readSample(nil), quit: make(chan struct{}), done: make(chan struct{}),
		fdDir: dir, dents: make([]byte, 64<<10),
	}
	t.sampleFDs()
	go func() {
		defer close(t.done)
		tick := time.NewTicker(fdTick)
		defer tick.Stop()
		for {
			select {
			case <-t.quit:
				t.sampleFDs()
				return
			case <-tick.C:
				t.sampleFDs()
			}
		}
	}()
	return t, nil
}

// sampleFDs counts the entries of /proc/self/fd (the sampler's own
// handle included) and keeps the peak.
func (t *tracer) sampleFDs() {
	fd := int(t.fdDir.Fd())
	if _, err := syscall.Seek(fd, 0, 0); err != nil {
		return
	}
	n := int64(-2) // "." and ".."
	for {
		m, err := syscall.Getdents(fd, t.dents)
		if err != nil || m <= 0 {
			break
		}
		// linux_dirent64: d_ino u64, d_off s64, d_reclen u16, ...
		for off := 0; off < m; off += int(binary.NativeEndian.Uint16(t.dents[off+16:])) {
			n++
		}
	}
	if n > t.peakFDs.Load() {
		t.peakFDs.Store(n)
	}
}

// periodEnd records the cumulative counters after a completed period.
func (t *tracer) periodEnd(scn *scenario.Scenario) {
	s := readSample(scn)
	t.mu.Lock()
	t.periods = append(t.periods, s)
	t.mu.Unlock()
}

// stop ends the fd sampler, waits for it and releases its handle; later
// calls do nothing.
func (t *tracer) stop() {
	t.stopOnce.Do(func() {
		close(t.quit)
		<-t.done
		t.fdDir.Close()
	})
}

// metrics reports the sampled layers: warm-period deltas of the
// runtime and web-service counters, GC share and peak fds.
func (t *tracer) metrics(out *Outcome, warm float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := t.periods[len(t.periods)-1]
	first := t.periods[0] // after the cold period
	out.set("go.allocs_per_period", (last.rt[0]-first.rt[0])/warm, "count")
	out.set("go.alloc_mb_per_period", (last.rt[1]-first.rt[1])/warm/(1<<20), "MB")
	out.set("go.gc_cycles", last.rt[2]-t.start.rt[2], "count")
	out.set("go.gc_cpu_share", share(last.rt[3]-t.start.rt[3], last.rt[4]-t.start.rt[4]), "share")
	out.set("ws.queries", float64(last.wsQuery-first.wsQuery)/warm, "count")
	out.set("ws.updates", float64(last.wsWrite-first.wsWrite)/warm, "count")
	out.set("dbproto.peak_fds", float64(t.peakFDs.Load()), "count")
}

// checkpointMetrics reports the durability layer: the run's own
// commits, snapshot and WAL. A workload that does not checkpoint reports
// zeros.
func checkpointMetrics(out *Outcome, b *core.Benchmark, walDir string, periods float64) error {
	var commits, commitS, snapshot, walBytes float64
	if walDir != "" {
		_, _, total := b.Monitor().Recovery().Latencies()
		_, _, n := b.Monitor().Recovery().Totals()
		man, err := checkpoint.ReadManifest(walDir)
		if err != nil {
			return fmt.Errorf("read checkpoint manifest: %w", err)
		}
		logs, err := filepath.Glob(filepath.Join(walDir, "wal*.log"))
		if err != nil {
			return err
		}
		for _, p := range logs {
			st, err := os.Stat(p)
			if err != nil {
				return err
			}
			walBytes += float64(st.Size())
		}
		commits = float64(n)
		commitS = share(total.Seconds(), commits)
		snapshot = float64(man.SnapshotSize)
	}
	out.set("checkpoint.commits", commits/periods, "count")
	out.set("checkpoint.commit_s", commitS, "s")
	out.set("checkpoint.snapshot_bytes", snapshot, "bytes")
	out.set("wal.bytes", walBytes/periods, "bytes")
	return nil
}

// probeReps is how often each probe repeats; the median is reported.
const probeReps = 3

// probes times direct calls into datagen and scenario on fresh values,
// after the run: source generation, E1 message generation, and a warm
// period re-initialization (Uninitialize + LoadSources).
func probes(out *Outcome, w Workload, seed uint64) error {
	const k = 1 // a warm period
	gcfg := datagen.Config{Seed: seed, Datasize: w.D, Dist: datagen.Uniform, Period: k}
	var genS, msgUS, initS []float64
	var data *scenario.SourceData
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		gen, err := datagen.New(gcfg)
		if err != nil {
			return err
		}
		if data, err = scenario.GenerateSourceData(gen); err != nil {
			return err
		}
		genS = append(genS, time.Since(t0).Seconds())
	}
	plan, err := schedule.PeriodPlan(k, w.scale())
	if err != nil {
		return err
	}
	for r := 0; r < probeReps; r++ {
		gen, err := datagen.New(gcfg)
		if err != nil {
			return err
		}
		n := 0
		t0 := time.Now()
		for _, in := range plan.Instances {
			if message(gen, in.Process, in.Seq) != nil {
				n++
			}
		}
		msgUS = append(msgUS, time.Since(t0).Seconds()*1e6/float64(n))
	}
	scn, err := scenario.New(scenario.Options{})
	if err != nil {
		return err
	}
	defer scn.Close()
	if err := scn.LoadSources(data); err != nil {
		return err
	}
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		if err := scn.Uninitialize(); err != nil {
			return err
		}
		if err := scn.LoadSources(data); err != nil {
			return err
		}
		initS = append(initS, time.Since(t0).Seconds())
	}
	out.set("datagen.source_gen_s", median(genS), "s")
	out.set("datagen.msg_gen_us", median(msgUS), "us")
	out.set("scenario.init_s", median(initS), "s")
	return nil
}

// message generates the E1 input of one instance, as the driver does.
func message(gen *datagen.Generator, process string, seq int) *x.Node {
	switch process {
	case "P01":
		return gen.BeijingCustomerMsg(seq)
	case "P02":
		return gen.MDMCustomer(seq)
	case "P04":
		return gen.ViennaOrder(seq)
	case "P08":
		return gen.HongkongOrder(seq)
	case "P10":
		doc, _ := gen.SanDiegoOrder(seq)
		return doc
	}
	return nil
}

// processCPU is the CPU time, user and system, that every thread of the
// process has used so far, in seconds.
func processCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
