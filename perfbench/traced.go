package main

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"vmshortcut/client"
	"vmshortcut/internal/obs"
)

// perLayer lists the traced run's metrics in print order, with units.
var perLayer = []struct{ name, unit string }{
	{"server.decode_ns_per_frame", "ns"},
	{"server.apply_ns_per_batch", "ns"},
	{"server.reply_ns_per_batch", "ns"},
	{"server.batch_total_ns", "ns"},
	{"server.ops_per_batch", "ops"},
	{"server.self_ns_per_batch", "ns"},
	{"store.get_ns_per_op", "ns"},
	{"store.locked_lookup_ns_per_key", "ns"},
	{"store.seqlock_fallback_ratio", "ratio"},
	{"shard.apply_ns_per_op", "ns"},
	{"shard.allocs_per_batch", "count"},
	{"wal.append_ns_per_record", "ns"},
	{"wal.fsync_ns", "ns"},
	{"wal.ops_per_record", "ops"},
	{"wal.bytes_per_write", "bytes"},
	{"wal.ladder_ns_per_op", "ns"},
	{"sceh.lookup_ns_per_key", "ns"},
	{"sceh.insert_ns_per_key", "ns"},
	{"sceh.shortcut_ratio", "ratio"},
	{"sceh.remaps_per_split", "ratio"},
	{"sceh.superseded_ratio", "ratio"},
	{"sceh.in_sync", "bool"},
	{"sceh.sync_wait_s", "s"},
	{"sceh.replay_miss_ratio", "ratio"},
	{"eh.lookup_ns_per_key", "ns"},
	{"gen.late_p99_us", "us"},
	{"gen.cpu_util", "ratio"},
	{"proc.alloc_bytes_per_op", "bytes"},
	{"trace.traced_over_untraced", "ratio"},
	{"recon.stage_sum_over_total", "ratio"},
	{"recon.span_over_apply", "ratio"},
	{"ladder.L0_ns_per_op", "ns"},
	{"ladder.L1_ns_per_op", "ns"},
	{"ladder.L2s1_ns_per_op", "ns"},
	{"ladder.L2s2_ns_per_op", "ns"},
	{"ladder.L2s1_allocs_per_batch", "count"},
	{"ladder.L2s2_allocs_per_batch", "count"},
}

// window is the traced host's view before or after the closed loop.
type window struct {
	scrape *obs.Scrape
	stats  client.Stats
	state  hostState
}

func httpGetJSON(url string, v any) error {
	c := http.Client{Timeout: 30 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func snapshot(p *serverProc) (window, error) {
	var w window
	c := http.Client{Timeout: 30 * time.Second}
	resp, err := c.Get("http://" + p.admin + "/metrics")
	if err != nil {
		return w, err
	}
	w.scrape, err = obs.ParseMetrics(resp.Body)
	resp.Body.Close()
	if err != nil {
		return w, err
	}
	if err := httpGetJSON("http://"+p.admin+"/perfbench/state", &w.state); err != nil {
		return w, err
	}
	cc, err := client.DialConnTimeout(p.addr, 5*time.Second)
	if err != nil {
		return w, err
	}
	defer cc.Close()
	w.stats, err = cc.Stats()
	return w, err
}

func fetchCapture(p *serverProc) (capture, error) {
	var c capture
	hc := http.Client{Timeout: 60 * time.Second}
	resp, err := hc.Get("http://" + p.admin + "/perfbench/batches")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	err = gob.NewDecoder(resp.Body).Decode(&c)
	return c, err
}

// traced is the per-layer run. It measures the untraced closed-loop
// throughput against the real ehserver once (the reference for the
// tracing overhead), then serves the same configuration from the traced
// host, scrapes its stages, spans and counters around the closed loop,
// runs the open loop for the generator figures, and finally replays the
// captured store batches on the in-process ladder.
func (b *bench) traced() (result, error) {
	ref, _, err := b.setUp(b.serverArgv)
	if err != nil {
		return result{}, err
	}
	refConns := make([]*genConn, 2)
	for ci := range refConns {
		gc, err := dialGen(ref.addr, newOpGen(b.s, b.seed, ci, 2, uint64(b.servers), b.versions()))
		if err != nil {
			ref.stop()
			return result{}, err
		}
		refConns[ci] = gc
	}
	var refClosed closedStats
	if _, err = runClosed(refConns, warmup, 1, 0); err == nil {
		refClosed, err = runClosed(refConns, b.dur/2, slices, 0)
	}
	for _, gc := range refConns {
		gc.close()
	}
	ref.stop()
	if err != nil {
		return result{}, fmt.Errorf("untraced reference: %w", err)
	}
	var refTput []float64
	for _, v := range refClosed.verified {
		refTput = append(refTput, float64(v)/refClosed.slice.Seconds())
	}

	host, info, err := b.setUp(b.hostArgv)
	if err != nil {
		return result{}, err
	}
	defer host.stop()
	var before, after window
	ph, err := b.drive(host, b.versions(), hooks{
		beforeClosed: func() error {
			resp, err := http.Post("http://"+host.admin+"/perfbench/capture", "", nil)
			if err != nil {
				return err
			}
			resp.Body.Close()
			before, err = snapshot(host)
			return err
		},
		afterClosed: func() error {
			var err error
			after, err = snapshot(host)
			return err
		},
	})
	if err != nil {
		return result{}, err
	}
	capt, err := fetchCapture(host)
	if err != nil {
		return result{}, fmt.Errorf("fetching captured batches: %w", err)
	}
	host.stop()
	res, t := b.report(ph)
	res.Correct = res.Correct && info.refused == 0
	rs := newReplaySet(capt)
	fmt.Printf("capture: %d store batches, %d ops\n", len(rs.batches), rs.ops)
	rungs, err := runLadder(b.s, b.seed, rs, b.dir)
	if err != nil {
		return result{}, err
	}
	m := b.layerMetrics(info, before, after, ph, t, calm(refTput, true), rungs)
	res.Metrics = map[string]metric{}
	for _, pl := range perLayer {
		v, ok := m[pl.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not computed", pl.name)
		}
		res.Metrics[pl.name] = metric{v, pl.unit}
	}
	return res, nil
}

// layerMetrics derives every per-layer metric and prints the ladder,
// the reconciliation, and the metrics a workload does not exercise.
func (b *bench) layerMetrics(info setupInfo, before, after window, ph phases, t totals, refTput float64, rungs []rungResult) map[string]float64 {
	m := map[string]float64{}
	stage := func(s obs.Stage) obs.ScrapedHist {
		name := s.MetricName()
		return after.scrape.Hists[name].Delta(before.scrape.Hists[name])
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	decode, apply, reply, total := stage(obs.StageDecode), stage(obs.StageApply), stage(obs.StageReplyWrite), stage(obs.StageTotal)
	walAppend, walFsync := stage(obs.StageWALAppend), stage(obs.StageWALFsync)
	span := after.state.Spans[spanNames[spanApply]]
	spanMean := ratio(float64(span.NS), float64(span.Calls))
	opsDelta := obs.ValueDelta(after.scrape, before.scrape, "eh_ops_total")
	puts := obs.ValueDelta(after.scrape, before.scrape, `eh_ops_applied_total{kind="put"}`)

	m["server.decode_ns_per_frame"] = decode.Mean()
	m["server.apply_ns_per_batch"] = apply.Mean()
	m["server.reply_ns_per_batch"] = reply.Mean()
	m["server.batch_total_ns"] = total.Mean()
	m["server.ops_per_batch"] = ratio(opsDelta, float64(total.Count))
	m["server.self_ns_per_batch"] = total.Mean() - spanMean

	sb, sa := before.stats.Store, after.stats.Store
	lockedReads := float64(sa.FastpathLockedReads - sb.FastpathLockedReads)
	fastReads := float64(sa.FastpathCacheReads-sb.FastpathCacheReads) +
		float64(sa.FastpathSeqlockReads-sb.FastpathSeqlockReads) + lockedReads
	m["store.seqlock_fallback_ratio"] = ratio(lockedReads, fastReads)

	walRecords := float64(sa.WALRecords - sb.WALRecords)
	m["wal.append_ns_per_record"] = walAppend.Mean()
	m["wal.fsync_ns"] = walFsync.Mean()
	m["wal.ops_per_record"] = ratio(puts, walRecords)
	m["wal.bytes_per_write"] = ratio(float64(sa.WALBytes-sb.WALBytes), puts)

	sc, tr := float64(sa.ShortcutLookups-sb.ShortcutLookups), float64(sa.TraditionalLookups-sb.TraditionalLookups)
	is := info.stats.Store
	m["sceh.shortcut_ratio"] = ratio(sc, sc+tr)
	m["sceh.remaps_per_split"] = ratio(float64(is.Remaps), float64(is.StructuralMods))
	m["sceh.superseded_ratio"] = ratio(float64(is.UpdatesSuperseded), float64(is.UpdatesApplied+is.UpdatesSuperseded))
	m["sceh.in_sync"] = 0
	if info.inSync {
		m["sceh.in_sync"] = 1
	}
	m["sceh.sync_wait_s"] = info.syncWait.Seconds()

	m["gen.late_p99_us"] = ph.open.latePercentileUS(99)
	m["gen.cpu_util"] = ph.open.cpuUtil()
	m["proc.alloc_bytes_per_op"] = ratio(float64(after.state.TotalAlloc-before.state.TotalAlloc), opsDelta)
	m["trace.traced_over_untraced"] = ratio(t.throughput, refTput)
	stageSum := float64(decode.Sum + stage(obs.StageCoalesce).Sum + apply.Sum + walAppend.Sum +
		stage(obs.StageReplAck).Sum + reply.Sum)
	m["recon.stage_sum_over_total"] = ratio(stageSum, float64(total.Sum))
	m["recon.span_over_apply"] = ratio(float64(span.NS), float64(apply.Sum+walAppend.Sum))

	byName := map[string]rungResult{}
	fmt.Println("ladder (captured batches replayed in-process; median of passes):")
	for _, r := range rungs {
		byName[r.name] = r
		fmt.Printf("  %-6s ApplyBatch %8.1f ns/op %6.2f allocs/batch | LookupBatch %8.1f ns/key (miss %.4f) | preload %6.1f ns/key in_sync=%v\n",
			r.name, r.applyNSPerOp, r.allocsPerBatch, r.lookupNSPerKey, r.lookupMissRatio, r.insertNSPerKey, r.inSync)
	}
	l0, l1, s1, s2 := byName["L0"], byName["L1"], byName["L2s1"], byName["L2s2"]
	m["store.get_ns_per_op"] = l1.applyNSPerOp - l0.applyNSPerOp
	m["store.locked_lookup_ns_per_key"] = l1.lookupNSPerKey
	m["shard.apply_ns_per_op"] = s2.applyNSPerOp - s1.applyNSPerOp
	m["shard.allocs_per_batch"] = s2.allocsPerBatch - s1.allocsPerBatch
	m["sceh.lookup_ns_per_key"] = l0.lookupNSPerKey
	m["sceh.insert_ns_per_key"] = l0.insertNSPerKey
	m["sceh.replay_miss_ratio"] = l0.lookupMissRatio
	m["eh.lookup_ns_per_key"] = byName["eh.L0"].lookupNSPerKey
	m["wal.ladder_ns_per_op"] = 0
	if l3, ok := byName["L3"]; ok {
		m["wal.ladder_ns_per_op"] = l3.applyNSPerOp - s2.applyNSPerOp
	}
	m["ladder.L0_ns_per_op"] = l0.applyNSPerOp
	m["ladder.L1_ns_per_op"] = l1.applyNSPerOp
	m["ladder.L2s1_ns_per_op"] = s1.applyNSPerOp
	m["ladder.L2s2_ns_per_op"] = s2.applyNSPerOp
	m["ladder.L2s1_allocs_per_batch"] = s1.allocsPerBatch
	m["ladder.L2s2_allocs_per_batch"] = s2.allocsPerBatch

	fmt.Printf("tracing overhead: traced closed loop %.0f ops/s vs untraced %.0f ops/s (ratio %.3f)\n",
		t.throughput, refTput, m["trace.traced_over_untraced"])
	fmt.Printf("reconcile: server stages sum to %.3f of batch_total (%d batches, mean %.0f ns); store span %.0f ns/call is %.3f of shard_apply+wal_append\n",
		m["recon.stage_sum_over_total"], total.Count, total.Mean(), spanMean, m["recon.span_over_apply"])
	if !b.s.wal {
		fmt.Println("not exercised on this workload (reported as 0): wal.* — the server runs without a WAL")
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %.6g\n", n, m[n])
	}
	return m
}
