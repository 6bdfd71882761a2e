package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"vmshortcut"
	"vmshortcut/internal/workload"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("250ms", "1s") so experiments.json stays editable by hand.
type Duration time.Duration

// UnmarshalJSON accepts a duration string or a bare number of
// nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("bench: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return err
	}
	*d = Duration(ns)
	return nil
}

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Axes is one experiment's parameter lists. Scalar fields shape every
// cell; list fields are grid axes and the experiment runs their cross
// product. An empty field defers to the grid's defaults (and, past
// those, to built-in defaults).
type Axes struct {
	Kind     string   `json:"kind,omitempty"`
	Load     int      `json:"load,omitempty"`
	Duration Duration `json:"duration,omitempty"`
	Warmup   Duration `json:"warmup,omitempty"`
	Conns    int      `json:"conns,omitempty"`
	Pipeline int      `json:"pipeline,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`

	Mix  []string `json:"mix,omitempty"`
	Dist []string `json:"dist,omitempty"`
	// Batch axis values: "none", "mixed", or a decimal size for
	// same-kind batch frames.
	Batch []string `json:"batch,omitempty"`
	// Fsync axis values: "none" (memory-only store, no WAL), or the WAL
	// policies "off" | "interval" | "always".
	Fsync      []string `json:"fsync,omitempty"`
	Shards     []int    `json:"shards,omitempty"`
	Gomaxprocs []int    `json:"gomaxprocs,omitempty"` // 0 = leave the runtime default
	// Replication: true runs a primary with an attached in-process
	// follower (requires a WAL, i.e. fsync != "none") and records the
	// follower's applied position and lag.
	Replication []bool `json:"replication,omitempty"`
}

// merge overlays exp over base: any field exp sets wins.
func (base Axes) merge(exp Axes) Axes {
	out := base
	if exp.Kind != "" {
		out.Kind = exp.Kind
	}
	if exp.Load != 0 {
		out.Load = exp.Load
	}
	if exp.Duration != 0 {
		out.Duration = exp.Duration
	}
	if exp.Warmup != 0 {
		out.Warmup = exp.Warmup
	}
	if exp.Conns != 0 {
		out.Conns = exp.Conns
	}
	if exp.Pipeline != 0 {
		out.Pipeline = exp.Pipeline
	}
	if exp.Seed != 0 {
		out.Seed = exp.Seed
	}
	if len(exp.Mix) > 0 {
		out.Mix = exp.Mix
	}
	if len(exp.Dist) > 0 {
		out.Dist = exp.Dist
	}
	if len(exp.Batch) > 0 {
		out.Batch = exp.Batch
	}
	if len(exp.Fsync) > 0 {
		out.Fsync = exp.Fsync
	}
	if len(exp.Shards) > 0 {
		out.Shards = exp.Shards
	}
	if len(exp.Gomaxprocs) > 0 {
		out.Gomaxprocs = exp.Gomaxprocs
	}
	if len(exp.Replication) > 0 {
		out.Replication = exp.Replication
	}
	return out
}

// fill applies the built-in defaults to whatever the grid left unset.
func (a Axes) fill() Axes {
	if a.Kind == "" {
		a.Kind = "shortcut-eh"
	}
	if a.Load == 0 {
		a.Load = 20_000
	}
	if a.Duration == 0 {
		a.Duration = Duration(time.Second)
	}
	if a.Conns == 0 {
		a.Conns = 4
	}
	if a.Pipeline == 0 {
		a.Pipeline = 32
	}
	if a.Seed == 0 {
		a.Seed = 42
	}
	if len(a.Mix) == 0 {
		a.Mix = []string{"A"}
	}
	if len(a.Dist) == 0 {
		a.Dist = []string{""} // the mix's own distribution
	}
	if len(a.Batch) == 0 {
		a.Batch = []string{BatchNone}
	}
	if len(a.Fsync) == 0 {
		a.Fsync = []string{FsyncNone}
	}
	if len(a.Shards) == 0 {
		a.Shards = []int{1}
	}
	if len(a.Gomaxprocs) == 0 {
		a.Gomaxprocs = []int{0}
	}
	if len(a.Replication) == 0 {
		a.Replication = []bool{false}
	}
	return a
}

// FsyncNone is the fsync-axis value for a memory-only store (no WAL at
// all); the remaining values are the store's WAL policies.
const FsyncNone = "none"

// Experiment is one named entry of the grid: a label plus its axis
// overrides.
type Experiment struct {
	Name string `json:"name"`
	Axes
}

// Grid is the experiments.json schema.
type Grid struct {
	// Repeats is the number of independent measured runs per cell;
	// summaries report mean/std over them.
	Repeats     int          `json:"repeats"`
	Defaults    Axes         `json:"defaults"`
	Experiments []Experiment `json:"experiments"`
}

// LoadGrid reads and validates an experiments.json. Unknown keys are
// errors: a misspelt or retired axis would otherwise be dropped silently
// and its experiment run at the default instead.
func LoadGrid(path string) (*Grid, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g Grid
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if g.Repeats <= 0 {
		g.Repeats = 3
	}
	if len(g.Experiments) == 0 {
		return nil, fmt.Errorf("bench: %s defines no experiments", path)
	}
	return &g, nil
}

// Cell is one fully resolved grid point: every axis pinned to a value.
type Cell struct {
	Experiment string `json:"experiment"`
	// Key names the cell uniquely across the grid; summaries, CSV rows
	// and the regression gate join on it, so it must be stable across
	// runs of the same grid.
	Key string `json:"key"`

	Kind     string   `json:"kind"`
	Mix      string   `json:"mix"`
	Dist     string   `json:"dist"`
	Batch    string   `json:"batch"`
	Fsync    string   `json:"fsync"`
	Shards   int      `json:"shards"`
	Procs    int      `json:"gomaxprocs"` // 0 = runtime default
	Repl     bool     `json:"replication"`
	Load     int      `json:"load"`
	Conns    int      `json:"conns"`
	Pipeline int      `json:"pipeline"`
	Duration Duration `json:"duration"`
	Warmup   Duration `json:"warmup"`
	Seed     uint64   `json:"seed"`
	Repeats  int      `json:"repeats"`
}

// FileStem is the cell's key flattened into a filename-safe stem.
func (c Cell) FileStem() string {
	return strings.NewReplacer("/", "__", " ", "_").Replace(c.Key)
}

// driverConfig resolves the cell into the driver's Config (minus the
// address, which the runner learns when the server binds).
func (c Cell) driverConfig() (Config, error) {
	mix, ok := workload.MixByName(c.Mix)
	if !ok {
		return Config{}, fmt.Errorf("bench: cell %s: unknown mix %q", c.Key, c.Mix)
	}
	switch strings.ToLower(c.Dist) {
	case "":
	case "zipfian", "zipf":
		mix.Zipf = true
	case "uniform":
		mix.Zipf = false
	default:
		return Config{}, fmt.Errorf("bench: cell %s: unknown distribution %q", c.Key, c.Dist)
	}
	cfg := Config{
		Mix: mix, Conns: c.Conns, Pipeline: c.Pipeline,
		Load: c.Load, Duration: time.Duration(c.Duration),
		Warmup: time.Duration(c.Warmup), Seed: c.Seed,
	}
	switch strings.ToLower(c.Batch) {
	case "", "0", BatchNone:
		cfg.BatchMode = BatchNone
	case BatchMixed:
		cfg.BatchMode = BatchMixed
	default:
		n, err := strconv.Atoi(c.Batch)
		if err != nil || n <= 0 {
			return Config{}, fmt.Errorf("bench: cell %s: batch must be none, mixed, or a positive size, got %q", c.Key, c.Batch)
		}
		cfg.BatchMode, cfg.BatchSize = BatchKind, n
	}
	return cfg, cfg.Validate()
}

// validate checks the axes the driver config does not cover.
func (c Cell) validate() error {
	if _, err := vmshortcut.ParseKind(c.Kind); err != nil {
		return fmt.Errorf("bench: cell %s: %w", c.Key, err)
	}
	switch c.Fsync {
	case FsyncNone, "off", "interval", "always":
	default:
		return fmt.Errorf("bench: cell %s: fsync must be none, off, interval, or always, got %q", c.Key, c.Fsync)
	}
	if c.Shards <= 0 {
		return fmt.Errorf("bench: cell %s: shards must be positive", c.Key)
	}
	if c.Procs < 0 {
		return fmt.Errorf("bench: cell %s: gomaxprocs must be non-negative", c.Key)
	}
	if c.Repl && c.Fsync == FsyncNone {
		return fmt.Errorf("bench: cell %s: replication requires a WAL (fsync off|interval|always): the primary ships its log", c.Key)
	}
	if _, err := c.driverConfig(); err != nil {
		return err
	}
	return nil
}

// Cells expands the grid into its cells: for each experiment, the cross
// product of every axis list. Every cell is validated, so a malformed
// grid fails before the first server starts.
func (g *Grid) Cells() ([]Cell, error) {
	var cells []Cell
	seen := map[string]bool{}
	for _, exp := range g.Experiments {
		if exp.Name == "" {
			return nil, fmt.Errorf("bench: every experiment needs a name")
		}
		a := g.Defaults.merge(exp.Axes).fill()
		for _, mix := range a.Mix {
			for _, dist := range a.Dist {
				for _, batch := range a.Batch {
					for _, fsync := range a.Fsync {
						for _, shards := range a.Shards {
							for _, procs := range a.Gomaxprocs {
								for _, repl := range a.Replication {
									c := Cell{
										Experiment: exp.Name,
										Kind:       a.Kind, Mix: mix, Dist: dist,
										Batch: batch, Fsync: fsync,
										Shards: shards, Procs: procs, Repl: repl,
										Load: a.Load, Conns: a.Conns, Pipeline: a.Pipeline,
										Duration: a.Duration, Warmup: a.Warmup,
										Seed: a.Seed, Repeats: g.Repeats,
									}
									c.Key = cellKey(c)
									if seen[c.Key] {
										return nil, fmt.Errorf("bench: duplicate cell %s (axes overlap within or across experiments)", c.Key)
									}
									seen[c.Key] = true
									if err := c.validate(); err != nil {
										return nil, err
									}
									cells = append(cells, c)
								}
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// cellKey builds the stable cell identifier. Only axes appear in it:
// scalar knobs (load, conns, ...) are assumed constant per experiment
// and live in the cell's JSON instead.
func cellKey(c Cell) string {
	dist := c.Dist
	if dist == "" {
		dist = "mixdefault"
	}
	key := fmt.Sprintf("%s/mix%s-%s-batch_%s-fsync_%s-shards%d-procs%d",
		c.Experiment, c.Mix, dist, c.Batch, c.Fsync, c.Shards, c.Procs)
	if c.Repl {
		key += "-repl"
	}
	return key
}
