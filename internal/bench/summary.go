package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Stat is one metric aggregated over a cell's repeats.
type Stat struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// statOf computes a Stat over samples; std is the population standard
// deviation (repeats are the whole population we measured, not a sample
// of a larger run set).
func statOf(samples []float64) Stat {
	if len(samples) == 0 {
		return Stat{}
	}
	s := Stat{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range samples {
		s.Mean += v
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	s.Mean /= float64(len(samples))
	var ss float64
	for _, v := range samples {
		d := v - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(samples)))
	return s
}

// CellSummary is one cell's grouped result: mean/std/min/max per metric
// over its repeats. It is the unit the markdown table, the history
// trajectory, and the regression gate all consume.
type CellSummary struct {
	Key        string `json:"key"`
	Experiment string `json:"experiment"`
	Mix        string `json:"mix"`
	Dist       string `json:"dist"`
	Batch      string `json:"batch"`
	Fsync      string `json:"fsync"`
	Shards     int    `json:"shards"`
	Procs      int    `json:"gomaxprocs"`
	Repl       bool   `json:"replication"`
	Repeats    int    `json:"repeats"`
	Ops        uint64 `json:"total_ops"`
	Errors     uint64 `json:"total_errors"`

	Throughput Stat `json:"throughput_ops_per_sec"`
	P50        Stat `json:"p50_ns"`
	P95        Stat `json:"p95_ns"`
	P99        Stat `json:"p99_ns"`
	WALRecords Stat `json:"wal_records"`
	// ReplLag is the end-of-run follower lag in WAL records, present for
	// replication cells.
	ReplLag *Stat `json:"repl_lag_records,omitempty"`
}

// Summary is the grouped summary.json artifact: environment, then one
// entry per cell.
type Summary struct {
	Stamp      string        `json:"stamp"`
	Go         string        `json:"go"`
	NumCPU     int           `json:"num_cpu"`
	Gomaxprocs int           `json:"gomaxprocs"`
	Cells      []CellSummary `json:"cells"`
}

// Summarize groups per-run records into per-cell statistics. Results are
// ordered by cell key for stable diffs.
func Summarize(stamp string, results []*CellResult) *Summary {
	s := &Summary{
		Stamp:      stamp,
		Go:         runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
	}
	for _, cr := range results {
		c := cr.Cell
		cs := CellSummary{
			Key: c.Key, Experiment: c.Experiment, Mix: c.Mix, Dist: c.Dist,
			Batch: c.Batch, Fsync: c.Fsync, Shards: c.Shards, Procs: c.Procs,
			Repl: c.Repl, Repeats: len(cr.Runs),
		}
		var tput, p50, p95, p99, walRecs, lag []float64
		for _, run := range cr.Runs {
			r := run.Report
			cs.Ops += r.Ops
			cs.Errors += r.Errors
			tput = append(tput, r.Throughput)
			p50 = append(p50, float64(r.Latency.P50))
			p95 = append(p95, float64(r.Latency.P95))
			p99 = append(p99, float64(r.Latency.P99))
			walRecs = append(walRecs, float64(r.Durability.WALRecords))
			if run.Follower != nil {
				lag = append(lag, float64(run.ReplLagRecords()))
			}
		}
		cs.Throughput = statOf(tput)
		cs.P50, cs.P95, cs.P99 = statOf(p50), statOf(p95), statOf(p99)
		cs.WALRecords = statOf(walRecs)
		if len(lag) > 0 {
			l := statOf(lag)
			cs.ReplLag = &l
		}
		s.Cells = append(s.Cells, cs)
	}
	sort.Slice(s.Cells, func(i, j int) bool { return s.Cells[i].Key < s.Cells[j].Key })
	return s
}

// csvHeader is the runs.csv column set, one row per measured run.
var csvHeader = []string{
	"key", "experiment", "repeat", "mix", "dist", "batch", "fsync",
	"shards", "gomaxprocs", "replication", "ops", "errors",
	"duration_seconds", "throughput_ops_per_sec",
	"p50_ns", "p95_ns", "p99_ns", "max_ns",
	"wal_records", "wal_syncs", "coalesced_batches",
	"repl_applied_lsn", "repl_lag_records",
}

// WriteRunsCSV writes one row per run: the per-run CSV artifact.
func WriteRunsCSV(w io.Writer, results []*CellResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, cr := range results {
		for _, run := range cr.Runs {
			c, r := run.Cell, run.Report
			var appliedLSN, lag uint64
			if run.Follower != nil {
				appliedLSN, lag = run.Follower.AppliedLSN, run.ReplLagRecords()
			}
			row := []string{
				c.Key, c.Experiment, strconv.Itoa(run.Repeat),
				c.Mix, r.Dist, c.Batch, c.Fsync,
				strconv.Itoa(c.Shards), strconv.Itoa(c.Procs), strconv.FormatBool(c.Repl),
				strconv.FormatUint(r.Ops, 10), strconv.FormatUint(r.Errors, 10),
				strconv.FormatFloat(r.DurationS, 'f', 6, 64),
				strconv.FormatFloat(r.Throughput, 'f', 1, 64),
				strconv.FormatUint(r.Latency.P50, 10),
				strconv.FormatUint(r.Latency.P95, 10),
				strconv.FormatUint(r.Latency.P99, 10),
				strconv.FormatUint(r.Latency.Max, 10),
				strconv.FormatUint(r.Durability.WALRecords, 10),
				strconv.FormatUint(r.Durability.WALSyncs, 10),
				strconv.FormatUint(r.Server.CoalescedBatches, 10),
				strconv.FormatUint(appliedLSN, 10),
				strconv.FormatUint(lag, 10),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMarkdown renders the paper-ready per-cell table.
func (s *Summary) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "## Benchmark grid — %s\n\n", s.Stamp)
	fmt.Fprintf(w, "%s, %d CPU(s), GOMAXPROCS %d. Latency is per pipelined round trip; mean ± std over repeats.\n\n",
		s.Go, s.NumCPU, s.Gomaxprocs)
	fmt.Fprintln(w, "| cell | mix | batch | fsync | shards | procs | repl | kops/s (±std) | p50 | p95 | p99 | WAL recs | lag |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|---|---|---|")
	for _, c := range s.Cells {
		repl, lag := "", ""
		if c.Repl {
			repl = "on"
			if c.ReplLag != nil {
				lag = fmt.Sprintf("%.0f", c.ReplLag.Mean)
			}
		}
		wal := ""
		if c.WALRecords.Mean > 0 {
			wal = fmt.Sprintf("%.0f", c.WALRecords.Mean)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %d | %d | %s | %.1f ± %.1f | %s | %s | %s | %s | %s |\n",
			c.Experiment, c.Mix, c.Batch, c.Fsync, c.Shards, c.Procs, repl,
			c.Throughput.Mean/1000, c.Throughput.Std/1000,
			durMS(c.P50.Mean), durMS(c.P95.Mean), durMS(c.P99.Mean), wal, lag)
	}
}

// durMS renders nanoseconds as a compact human duration.
func durMS(ns float64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// HistoryEntry is one appended point of the BENCH_history.json
// trajectory: a stamp, the environment, and the full per-cell summary.
type HistoryEntry struct {
	Stamp  string `json:"stamp"`
	Label  string `json:"label,omitempty"`
	Go     string `json:"go"`
	NumCPU int    `json:"num_cpu"`
	// Cells carries every summarized metric — throughput, p50/p95/p99,
	// WAL records, replication lag — so the trajectory is diffable
	// without digging out the run directory.
	Cells []CellSummary `json:"cells"`
}

// Entry converts a summary into its history point.
func (s *Summary) Entry(label string) HistoryEntry {
	return HistoryEntry{
		Stamp: s.Stamp, Label: label, Go: s.Go, NumCPU: s.NumCPU, Cells: s.Cells,
	}
}

// ReadHistory loads a BENCH_history.json trajectory; a missing file is
// an empty trajectory.
func ReadHistory(path string) ([]HistoryEntry, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var hist []HistoryEntry
	if err := json.Unmarshal(b, &hist); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return hist, nil
}

// AppendHistory appends one entry to the trajectory file, creating it if
// needed. The file is always a JSON array — the perf trajectory other
// PRs diff against.
func AppendHistory(path string, e HistoryEntry) error {
	hist, err := ReadHistory(path)
	if err != nil {
		return err
	}
	hist = append(hist, e)
	b, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
