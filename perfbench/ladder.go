package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vmshortcut"
	"vmshortcut/internal/op"
)

// replayPasses is how many times each rung replays the captured batches;
// the rung reports its median pass.
const replayPasses = 3

// rung is one layer of the ladder, opened in-process.
type rung struct {
	name string
	kind vmshortcut.Kind
	opts func(dir string) []vmshortcut.Option
}

// ladderRungs returns the rungs for s: L0 the bare index (Shortcut-EH,
// and EH as the paper's baseline), L1 the concurrency wrapper, L2 the
// sharded store at 1 and 2 shards, and — for durable workloads — L3 the
// served sharded store behind the WAL with the served fsync policy.
func ladderRungs(s spec) []rung {
	none := func(string) []vmshortcut.Option { return nil }
	sharded := func(n int) func(string) []vmshortcut.Option {
		return func(string) []vmshortcut.Option {
			return []vmshortcut.Option{vmshortcut.WithShards(n), vmshortcut.WithConcurrency(true)}
		}
	}
	rs := []rung{
		{"L0", vmshortcut.KindShortcutEH, none},
		{"eh.L0", vmshortcut.KindEH, none},
		{"L1", vmshortcut.KindShortcutEH, func(string) []vmshortcut.Option {
			return []vmshortcut.Option{vmshortcut.WithConcurrency(true)}
		}},
		{"L2s1", vmshortcut.KindShortcutEH, sharded(1)},
		{"L2s2", vmshortcut.KindShortcutEH, sharded(2)},
	}
	if s.wal {
		rs = append(rs, rung{"L3", vmshortcut.KindShortcutEH, func(dir string) []vmshortcut.Option {
			return []vmshortcut.Option{
				vmshortcut.WithShards(2), vmshortcut.WithConcurrency(true),
				vmshortcut.WithWAL(dir), vmshortcut.WithFsync(vmshortcut.FsyncInterval),
				vmshortcut.WithFsyncInterval(100 * time.Millisecond),
			}
		}})
	}
	return rs
}

// rungResult is one rung's measurements.
type rungResult struct {
	name            string
	insertNSPerKey  float64 // preload through InsertBatch
	inSync          bool
	applyNSPerOp    float64 // captured batches through ApplyBatch
	allocsPerBatch  float64
	lookupNSPerKey  float64 // the captured GET keys through LookupBatch
	lookupMissRatio float64 // share of those lookups that found nothing
}

// replaySet is the captured traffic prepared for replay.
type replaySet struct {
	batches []op.Batch
	gets    [][]uint64 // GET keys of each batch
	ops     int
	getOps  int
}

func newReplaySet(c capture) replaySet {
	var rs replaySet
	lo := 0
	for _, hi := range c.Ends {
		var b op.Batch
		var gets []uint64
		for i := lo; i < int(hi); i++ {
			b.Add(c.Kinds[i], c.Keys[i], c.Vals[i])
			if c.Kinds[i] == op.Get {
				gets = append(gets, c.Keys[i])
			}
		}
		rs.batches = append(rs.batches, b)
		rs.gets = append(rs.gets, gets)
		rs.ops += int(hi) - lo
		rs.getOps += len(gets)
		lo = int(hi)
	}
	return rs
}

// runLadder opens each rung in turn, preloads it exactly like the served
// store, waits (bounded) for it to sync, and replays the captured
// batches. Only one rung is open at a time.
func runLadder(s spec, seed uint64, rs replaySet, dir string) ([]rungResult, error) {
	var out []rungResult
	for _, r := range ladderRungs(s) {
		res, err := runRung(r, s, seed, rs, dir)
		if err != nil {
			return out, fmt.Errorf("ladder rung %s: %w", r.name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func runRung(r rung, s spec, seed uint64, rs replaySet, dir string) (rungResult, error) {
	res := rungResult{name: r.name}
	walDir := filepath.Join(dir, "ladder-wal")
	if err := os.RemoveAll(walDir); err != nil {
		return res, err
	}
	defer os.RemoveAll(walDir)
	st, err := vmshortcut.Open(r.kind, r.opts(walDir)...)
	if err != nil {
		return res, err
	}
	defer st.Close()

	keys := make([]uint64, 0, preloadBatch)
	vals := make([]uint64, 0, preloadBatch)
	t0 := time.Now()
	for i := 0; i < s.keys; i += preloadBatch {
		keys, vals = keys[:0], vals[:0]
		for j := i; j < s.keys && j < i+preloadBatch; j++ {
			keys = append(keys, keyOf(seed, uint64(j)))
			vals = append(vals, valueOf(seed, uint64(j), 0))
		}
		if err := st.InsertBatch(keys, vals); err != nil {
			return res, fmt.Errorf("preload: %w", err)
		}
	}
	res.insertNSPerKey = float64(time.Since(t0).Nanoseconds()) / float64(s.keys)
	res.inSync = st.WaitSync(syncBound)

	var results op.Results
	var ms0, ms1 runtime.MemStats
	var applyNS, allocs []float64
	for pass := 0; pass < replayPasses; pass++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		for i := range rs.batches {
			if err := st.ApplyBatch(&rs.batches[i], &results); err != nil {
				return res, fmt.Errorf("replay: %w", err)
			}
		}
		el := time.Since(t)
		runtime.ReadMemStats(&ms1)
		applyNS = append(applyNS, float64(el.Nanoseconds())/float64(rs.ops))
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(len(rs.batches)))
	}
	res.applyNSPerOp, res.allocsPerBatch = median(applyNS), median(allocs)

	if rs.getOps > 0 {
		out := make([]uint64, maxGets(rs))
		var lookNS []float64
		misses := 0
		for pass := 0; pass < replayPasses; pass++ {
			misses = 0
			t := time.Now()
			for _, g := range rs.gets {
				if len(g) == 0 {
					continue
				}
				for _, ok := range st.LookupBatch(g, out) {
					if !ok {
						misses++
					}
				}
			}
			lookNS = append(lookNS, float64(time.Since(t).Nanoseconds())/float64(rs.getOps))
		}
		res.lookupNSPerKey = median(lookNS)
		res.lookupMissRatio = float64(misses) / float64(rs.getOps)
	}
	return res, nil
}

// maxGets is the most GETs of any captured batch.
func maxGets(rs replaySet) int {
	n := 1
	for _, g := range rs.gets {
		if len(g) > n {
			n = len(g)
		}
	}
	return n
}
