package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func summaryWith(cells ...CellSummary) *Summary {
	return &Summary{Stamp: "test", Go: "go-test", NumCPU: 1, Cells: cells}
}

func cell(key string, tput, p99 float64) CellSummary {
	return CellSummary{
		Key:        key,
		Throughput: Stat{Mean: tput, Min: tput, Max: tput},
		P99:        Stat{Mean: p99, Min: p99, Max: p99},
	}
}

// TestCompareSelfPasses is the acceptance gate's identity property: a
// summary compared against itself reports zero regressions.
func TestCompareSelfPasses(t *testing.T) {
	s := summaryWith(cell("a", 1000, 500), cell("b", 2000, 900))
	cmp, err := Compare(s, s, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Failed() {
		t.Fatalf("self-compare failed: %s", cmp)
	}
	if cmp.Matched != 2 || len(cmp.Notes) != 0 {
		t.Fatalf("self-compare: matched %d, notes %v", cmp.Matched, cmp.Notes)
	}
}

// TestCompareCatchesSyntheticRegression: a cell past the threshold fails
// the gate; one inside the threshold does not.
func TestCompareCatchesSyntheticRegression(t *testing.T) {
	base := summaryWith(cell("fast", 1000, 500), cell("steady", 1000, 500))
	cur := summaryWith(cell("fast", 800, 500), cell("steady", 950, 500)) // -20%, -5%
	cmp, err := Compare(base, cur, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Failed() {
		t.Fatalf("20%% drop passed a 15%% gate: %s", cmp)
	}
	if len(cmp.Regressions) != 1 || cmp.Regressions[0].Key != "fast" {
		t.Fatalf("regressions = %v, want exactly [fast]", cmp.Regressions)
	}
	if got := cmp.Regressions[0].Change; got > -0.19 || got < -0.21 {
		t.Fatalf("change = %v, want ~ -0.20", got)
	}

	// The same drop passes a looser gate.
	cmp, err = Compare(base, cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Failed() {
		t.Fatalf("20%% drop failed a 25%% gate: %s", cmp)
	}
}

// TestCompareImprovementAndNotes: speedups never fail; p99 inflation and
// asymmetric cell sets surface as notes only.
func TestCompareImprovementAndNotes(t *testing.T) {
	base := summaryWith(cell("a", 1000, 500), cell("gone", 10, 10))
	cur := summaryWith(cell("a", 2000, 1000), cell("fresh", 10, 10)) // 2× faster, 2× p99
	cmp, err := Compare(base, cur, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Failed() {
		t.Fatalf("an improvement failed the gate: %s", cmp)
	}
	joined := strings.Join(cmp.Notes, "\n")
	for _, want := range []string{"p99", "fresh", "gone"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes %q missing %q", joined, want)
		}
	}
}

func TestCompareRejectsDisjointSummaries(t *testing.T) {
	if _, err := Compare(summaryWith(cell("a", 1, 1)), summaryWith(cell("b", 1, 1)), 0.15); err == nil {
		t.Fatal("disjoint summaries compared without error")
	}
	if _, err := Compare(summaryWith(cell("a", 1, 1)), summaryWith(cell("a", 1, 1)), 0); err == nil {
		t.Fatal("zero threshold accepted")
	}
}

// TestLoadComparable reads both accepted baseline shapes: a summary.json
// object and a BENCH_history.json trajectory (newest entry wins).
func TestLoadComparable(t *testing.T) {
	dir := t.TempDir()
	sum := summaryWith(cell("a", 1000, 500))

	sumPath := filepath.Join(dir, "summary.json")
	if err := writeJSON(sumPath, sum); err != nil {
		t.Fatal(err)
	}
	got, err := LoadComparable(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != 1 || got.Cells[0].Key != "a" {
		t.Fatalf("summary load: %+v", got)
	}

	histPath := filepath.Join(dir, "BENCH_history.json")
	old := summaryWith(cell("a", 1, 1))
	if err := AppendHistory(histPath, old.Entry("old")); err != nil {
		t.Fatal(err)
	}
	if err := AppendHistory(histPath, sum.Entry("new")); err != nil {
		t.Fatal(err)
	}
	got, err = LoadComparable(histPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cells[0].Throughput.Mean != 1000 {
		t.Fatalf("history load did not pick the newest entry: %+v", got.Cells[0])
	}

	// A history self-compare must pass — this is what CI's advisory run
	// does against the committed trajectory.
	cmp, err := Compare(got, sum, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Failed() {
		t.Fatalf("history-vs-summary self compare failed: %s", cmp)
	}

	if _, err := LoadComparable(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing baseline loaded without error")
	}
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte("[]\n"), 0o644)
	if _, err := LoadComparable(empty); err == nil {
		t.Fatal("empty trajectory loaded without error")
	}
}

func TestStatOf(t *testing.T) {
	s := statOf([]float64{2, 4, 6})
	if s.Mean != 4 || s.Min != 2 || s.Max != 6 {
		t.Fatalf("statOf: %+v", s)
	}
	// Population std of {2,4,6} is sqrt(8/3) ≈ 1.633.
	if s.Std < 1.63 || s.Std > 1.64 {
		t.Fatalf("std = %v, want ~1.633", s.Std)
	}
	if z := statOf(nil); z != (Stat{}) {
		t.Fatalf("statOf(nil) = %+v, want zero", z)
	}
}

// TestCommittedTrajectoryLoads reads the repository's own
// BENCH_history.json, whose entries carry fields and cell keys of axes
// the grid no longer has (read_cache, batch_window_adaptive, -readcache
// and -adwin keys). History decoding stays lenient so the trajectory
// keeps serving as a baseline: it must load and self-compare green.
func TestCommittedTrajectoryLoads(t *testing.T) {
	got, err := LoadComparable(filepath.Join("..", "..", "BENCH_history.json"))
	if err != nil {
		t.Fatal(err)
	}
	retired := 0
	for _, c := range got.Cells {
		if strings.Contains(c.Key, "-readcache") || strings.Contains(c.Key, "-adwin") {
			retired++
		}
	}
	if retired == 0 {
		t.Fatal("the newest history entry has no cells of the retired axes; this test no longer covers them")
	}
	cmp, err := Compare(got, got, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Failed() {
		t.Fatalf("committed trajectory self compare failed: %s", cmp)
	}
}
