// Command perfbench is the DIPBench-Go benchmark harness. It runs one
// workload through the public facade (core.New / RunContext), checks the
// integrated result, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 26112, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, derived from the
// program's own records and trace with no harness-side sampling. With
// --trace 1 the harness first runs the same workload untraced in a child
// process, then runs it again with samplers and probes, and prints the
// per-layer set, including the tracing overhead between the two runs.
//
// Build and run it from the repository root with perfbench/run.sh, for
// example:
//
//	bash perfbench/run.sh --workload bulk-d4 --seed 42 --seconds 30 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// childSummary is what the untraced child of a traced run hands back.
type childSummary struct {
	WallS   float64 `json:"wall_s"`
	Digest  string  `json:"digest"`
	Correct bool    `json:"correct"`
}

func (o *Outcome) summary() childSummary {
	return childSummary{WallS: o.WallS, Digest: o.Digest, Correct: o.Correct}
}

// setupSamples is how often an end-to-end invocation sets the stack up,
// the measured run included; the median is reported as setup_s.
const setupSamples = 7

// warmUp is how long every CPU spins before the set-up samples. On a
// 2-vCPU virtual machine a vCPU that was idle runs set-up about 1.8 times
// slower for the first 1.5 s of work; spinning both first removes that.
const warmUp = 1500 * time.Millisecond

// warmCPUs keeps every CPU busy for d and returns when all are done.
func warmCPUs(d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
			}
		}()
	}
	wg.Wait()
}

// Tags prefix the summary lines of the child processes.
const (
	childTag = "perfbench-child "
	setupTag = "perfbench-setup "
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 42, "input generation seed")
	seconds := fs.Float64("seconds", 30, "nominal measured seconds; sets the fixed period count")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced run")
	root := fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	child := fs.Bool("child", false, "internal: untraced twin of a traced invocation")
	setupOnly := fs.Bool("setup-sample", false, "internal: time one set-up and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	base := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	opts := Options{Seed: *seed, Periods: w.periodsFor(*seconds), Scratch: scratch}
	ctx := context.Background()
	if *setupOnly {
		s, _, err := SetupSample(ctx, w, opts)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s%v\n", setupTag, s)
		return 0
	}
	// Set-up samples run first, each in a fresh process, so the measured
	// run is not preceded by a stack in its own process.
	var setups []float64
	if *trace == 0 && !*child {
		warmCPUs(warmUp)
	}
	for *trace == 0 && !*child && len(setups) < setupSamples-1 {
		s, err := runSetupChild(ctx, args, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up sample:", err)
			return 1
		}
		setups = append(setups, s)
	}
	var untraced *childSummary
	if *trace == 1 {
		if untraced, err = runChild(ctx, args, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench: untraced run:", err)
			return 1
		}
		opts.Traced = true
	}
	out, err := Run(ctx, w, opts)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if setups != nil {
		setups = append(setups, out.Metrics["setup_s"].Value)
		out.set("setup_s", median(setups), "s")
		out.printf("set-up samples, the measured run's last: %v s", setups)
	}
	defs := endToEnd
	if untraced != nil {
		out.compareUntraced(*untraced)
		defs = perLayer
	}
	res := result{Correct: out.Correct, Attempted: out.Attempted, Failed: out.Failed, Metrics: make(map[string]Metric)}
	for _, d := range defs {
		m, ok := out.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.Name)
			return 1
		}
		res.Metrics[d.Name] = m
	}
	for _, l := range out.Lines {
		fmt.Fprintln(stdout, l)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-34s %16.6f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if *child {
		line, err := json.Marshal(out.summary())
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s%s\n", childTag, line)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// compareUntraced folds the untraced twin of a traced run into the
// traced outcome: the tracing overhead on the run's wall, whether the two
// final states agree, and correctness of both.
func (o *Outcome) compareUntraced(u childSummary) {
	o.set("trace.overhead_share", o.WallS/u.WallS-1, "share")
	distinct := 1.0
	if u.Digest != o.Digest {
		distinct = 2
	}
	o.set("digest.distinct", distinct, "count")
	o.printf("untraced wall %.3f s, traced wall %.3f s, distinct digests %v", u.WallS, o.WallS, distinct)
	o.Correct = o.Correct && u.Correct
}

// runChild runs the untraced twin of a traced invocation in a fresh
// process of this binary, echoes its report, and returns its summary.
func runChild(ctx context.Context, args []string, stdout, stderr io.Writer) (*childSummary, error) {
	rest, err := runSelf(ctx, args, childTag, stdout, stderr, "--trace", "0", "--child")
	if err != nil {
		return nil, err
	}
	sum := &childSummary{}
	if err := json.Unmarshal([]byte(rest), sum); err != nil {
		return nil, fmt.Errorf("child summary: %w", err)
	}
	return sum, nil
}

// runSetupChild times one set-up in a fresh process of this binary.
func runSetupChild(ctx context.Context, args []string, stderr io.Writer) (float64, error) {
	rest, err := runSelf(ctx, args, setupTag, io.Discard, stderr, "--setup-sample")
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(rest, 64)
}

// runSelf runs this binary with args and extra, waits for it to exit,
// and returns the rest of its output line that starts with tag. Its other
// report lines are echoed to stdout, marked as the child's.
func runSelf(ctx context.Context, args []string, tag string, stdout, stderr io.Writer, extra ...string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, self, append(append([]string(nil), args...), extra...)...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return "", err
	}
	found, rest := false, ""
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		l := sc.Text()
		if r, ok := strings.CutPrefix(l, tag); ok {
			found, rest = true, r
			continue
		}
		if !strings.HasPrefix(l, "{") {
			fmt.Fprintln(stdout, "child |", l)
		}
	}
	if !found {
		return "", errors.New("child printed no summary")
	}
	return rest, nil
}
