package monitor

import (
	"fmt"
	"io"
	"strings"
)

// Plot renders the Fig. 10/11-style DIPBench performance plot as ASCII:
// one bar pair (NAVG+, NAVG) per process type, on a linear scale. It also
// states the scale configuration, mirroring the plot titles of the paper.
func (r *Report) Plot(w io.Writer, sfDatasize float64) error {
	if _, err := fmt.Fprintf(w,
		"DIPBench Performance Plot [sfTime=%g, sfDatasize=%g]\n",
		r.TimeScale, sfDatasize); err != nil {
		return err
	}
	maxVal := 0.0
	for _, s := range r.Stats {
		if s.NAVGPlus > maxVal {
			maxVal = s.NAVGPlus
		}
	}
	if maxVal == 0 {
		maxVal = 1
	}
	const width = 60
	for _, s := range r.Stats {
		plusBar := int(s.NAVGPlus / maxVal * width)
		avgBar := int(s.NAVG / maxVal * width)
		if _, err := fmt.Fprintf(w, "%-4s NAVG+ |%-*s| %10.2f tu\n",
			s.Process, width, strings.Repeat("#", plusBar), s.NAVGPlus); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "     NAVG  |%-*s| %10.2f tu\n",
			width, strings.Repeat("=", avgBar), s.NAVG); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the report as CSV (one row per process type) for external
// plotting tools.
func (r *Report) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "process,instances,failures,navg_tu,stddev_tu,navgplus_tu,cc_tu,cm_tu,cp_tu,avg_concurrency,p50_tu,p95_tu"); err != nil {
		return err
	}
	for _, s := range r.Stats {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
			s.Process, s.Instances, s.Failures, s.NAVG, s.StdDev, s.NAVGPlus,
			s.AvgCc, s.AvgCm, s.AvgCp, s.AvgConc, s.P50, s.P95); err != nil {
			return err
		}
	}
	return nil
}

// WriteGnuplotDat emits a gnuplot-compatible data file matching the
// paper's plots: index, process id, NAVG+ and NAVG columns.
func (r *Report) WriteGnuplotDat(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "# idx process navgplus_tu navg_tu"); err != nil {
		return err
	}
	for i, s := range r.Stats {
		if _, err := fmt.Fprintf(w, "%d %s %.4f %.4f\n", i+1, s.Process, s.NAVGPlus, s.NAVG); err != nil {
			return err
		}
	}
	return nil
}

// WriteRecordsCSV dumps the raw per-instance records (for the Monitor
// tool's offline analysis path).
func (m *Monitor) WriteRecordsCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "process,period,start_unix_ns,end_unix_ns,cc_ns,cm_ns,cp_ns,avg_concurrency,failed"); err != nil {
		return err
	}
	for _, rec := range m.Records() {
		failed := 0
		if rec.Err != nil {
			failed = 1
		}
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%.6f,%d\n",
			rec.Process, rec.Period, rec.Start.UnixNano(), rec.End.UnixNano(),
			rec.Cc.Nanoseconds(), rec.Cm.Nanoseconds(), rec.Cp.Nanoseconds(),
			rec.AvgConc, failed); err != nil {
			return err
		}
	}
	return nil
}
