// Command perfbench is the repository's benchmark. It runs one workload
// against the real ehserver binary, in its own process, configured as
// -kind shortcut-eh -shards 2, from a generator process with at most two
// connections, checks every response, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics of a separate traced run).
//
// Usage, from the repository root (run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload hot-get --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it are the
// human-readable account of the run. "perfbench host ..." is the traced
// host role the benchmark starts for itself.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"vmshortcut/internal/wire"
)

// warmup is the closed-loop time before measurement: caches fill, and
// lazy set-up in the server finishes.
const warmup = time.Second

// slices splits the closed-loop phase; the reported figures are the
// calm decile of the slices (see calm). The open loop sizes its slices
// by sample count (openSlices).
const slices = 50

// runLimit bounds one invocation, set-up, ladder and all.
const runLimit = 170 * time.Second

// setupRepeats is how many times an end-to-end run sets up a server;
// setup_s is the median, and the last server is the one measured.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	if len(os.Args) > 1 && os.Args[1] == "host" {
		if err := hostMain(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	name := flag.String("workload", "", "workload: hot-get | big-uniform-get | durable-update")
	seed := flag.Uint64("seed", 1, "workload seed: keys, values and operation streams derive from it")
	seconds := flag.Int("seconds", 10, "measured seconds: half closed loop, half open loop")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced run")
	serverBin := flag.String("server-bin", "", "ehserver binary built from this checkout")
	workDir := flag.String("work-dir", ".bench_build/run", "scratch directory for server logs and WAL directories")
	flag.Parse()
	// A run that overstays its budget, or is interrupted, stops its
	// servers and fails instead of leaving them behind.
	time.AfterFunc(runLimit, func() {
		log.Printf("run exceeded %v; stopping", runLimit)
		stopAll()
		os.Exit(1)
	})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		log.Printf("%v; stopping", <-sigs)
		stopAll()
		os.Exit(1)
	}()
	s, err := specByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	if *serverBin == "" || *seconds < 2 || (*trace != 0 && *trace != 1) {
		log.Fatal("need -server-bin, -seconds >= 2 and -trace 0|1")
	}
	// One P: a second P would spin looking for work and take CPU from the
	// server; on two vCPUs that halved the measured server throughput and
	// made it vary between runs.
	runtime.GOMAXPROCS(1)

	dir := filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", s.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	b := &bench{s: s, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		serverArgv: []string{*serverBin}, dir: dir}
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	b.hostArgv = []string{self, "host"}

	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d generator gomaxprocs=1 go=%s\n",
		s.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.Version())
	fmt.Printf("perfbench: server flags: %s\n", strings.Join(s.flags(), " "))
	var res result
	if *trace == 0 {
		res, err = b.endToEnd()
	} else {
		res, err = b.traced()
	}
	if err != nil {
		log.Printf("%v (server logs in %s)", err, dir)
		os.Exit(1)
	}
	os.RemoveAll(dir)
	out, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

// bench is one invocation: a workload, its seed, and where things run.
type bench struct {
	s          spec
	seed       uint64
	dur        time.Duration
	serverArgv []string
	hostArgv   []string
	dir        string
	servers    int // servers started so far: names logs, WAL dirs and op streams
}

// setUp starts server number b.servers from argv and makes it ready.
func (b *bench) setUp(argv []string) (*serverProc, setupInfo, error) {
	n := b.servers
	b.servers++
	p, info, err := setUp(argv, b.s, b.seed, b.dir, n)
	if err == nil {
		fmt.Printf("setup %d: %.3fs (preload %.3fs, %d of %d keys refused; sync wait %.3fs, in_sync=%v)\n",
			n, info.total.Seconds(), info.preload.Seconds(), info.refused, b.s.keys, info.syncWait.Seconds(), info.inSync)
	}
	return p, info, err
}

// phases is what one measured server yields.
type phases struct {
	closed    closedStats
	open      openStats
	selfCheck error
}

// hooks run around the closed-loop phase (the traced run scrapes there).
type hooks struct {
	beforeClosed, afterClosed func() error
}

// drive runs warmup, the verification self-check, the closed loop and
// the open loop against p. vers carries key versions across the
// connections of a workload with updates.
func (b *bench) drive(p *serverProc, vers []uint32, h hooks) (phases, error) {
	var ph phases
	stream := uint64(b.servers)
	conns := make([]*genConn, 2)
	for ci := range conns {
		gc, err := dialGen(p.addr, newOpGen(b.s, b.seed, ci, len(conns), stream, vers))
		if err != nil {
			return ph, err
		}
		defer gc.close()
		conns[ci] = gc
	}
	half := b.dur / 2
	if _, err := runClosed(conns, warmup, 1, 0); err != nil {
		return ph, fmt.Errorf("warmup: %w", err)
	}
	ph.selfCheck = selfCheck(conns[0])
	if h.beforeClosed != nil {
		if err := h.beforeClosed(); err != nil {
			return ph, err
		}
	}
	var err error
	if ph.closed, err = runClosed(conns, half, slices, p.pid()); err != nil {
		return ph, fmt.Errorf("closed loop: %w", err)
	}
	if h.afterClosed != nil {
		if err := h.afterClosed(); err != nil {
			return ph, err
		}
	}
	if ph.open, err = runOpen(conns, b.s.openFramesS, half); err != nil {
		return ph, fmt.Errorf("open loop: %w", err)
	}
	return ph, nil
}

func (b *bench) versions() []uint32 {
	if b.s.getShare < 1 {
		return make([]uint32, b.s.keys)
	}
	return nil
}

// endToEnd is the untraced run: setupRepeats set-ups of the real
// ehserver, then the measured phases against the last one.
func (b *bench) endToEnd() (result, error) {
	var setups []float64
	var p *serverProc
	var info setupInfo
	for i := 0; i < setupRepeats; i++ {
		if p != nil {
			p.stop()
		}
		var err error
		if p, info, err = b.setUp(b.serverArgv); err != nil {
			return result{}, err
		}
		setups = append(setups, info.total.Seconds())
	}
	defer p.stop()
	ph, err := b.drive(p, b.versions(), hooks{})
	if err != nil {
		return result{}, err
	}
	hwm, err := procHWMMB(p.pid())
	if err != nil {
		return result{}, err
	}
	res, t := b.report(ph)
	res.Correct = res.Correct && info.refused == 0
	res.Metrics = map[string]metric{
		"throughput_ops_s":     {t.throughput, "ops/s"},
		"p50_us":               {t.p50, "us"},
		"verified_ratio":       {1 - t.failedRatio, "ratio"},
		"setup_s":              {median(setups), "s"},
		"server_rss_mb":        {hwm, "MiB"},
		"server_cpu_us_per_op": {t.cpuPerOp, "us/op"},
	}
	fmt.Printf("setup_s: median of %v; server VmHWM %.1f MiB; in_sync=%v\n", setups, hwm, info.inSync)
	// The issue's seven metrics, by name. p99_us and failed_ratio are not
	// in the result line: p99 is too unsteady on a shared two-vCPU host
	// to carry a bound, and failed_ratio is 0 on a correct run, so the
	// result carries verified_ratio instead.
	fmt.Printf("end-to-end: throughput_ops_s=%.0f ops/s p50_us=%.1f us p99_us=%.1f us failed_ratio=%.6f setup_s=%.3f s server_rss_mb=%.1f MiB server_cpu_us_per_op=%.4f us/op\n",
		t.throughput, t.p50, t.p99, t.failedRatio, median(setups), hwm, t.cpuPerOp)
	return res, nil
}

// totals are the figures both run kinds derive from the phases.
type totals struct {
	throughput, p50, p99, failedRatio, cpuPerOp float64
}

// report prints the phases' account and fills the result's tallies.
func (b *bench) report(ph phases) (result, totals) {
	var t totals
	c, o := ph.closed, ph.open
	var tput, cpu []float64
	for i, v := range c.verified {
		tput = append(tput, float64(v)/c.slice.Seconds())
		if i < len(c.cpuS) && v > 0 {
			cpu = append(cpu, c.cpuS[i]/float64(v)*1e6)
		}
	}
	t.throughput, t.cpuPerOp = calm(tput, true), calm(cpu, false)
	var n int
	t.p50, t.p99, n = o.calmLatencyUS()
	var all tally
	all.add(c.tally)
	all.add(o.tally)
	if all.attempted > 0 {
		t.failedRatio = float64(all.failed) / float64(all.attempted)
	}
	valid, why := o.validity()
	fmt.Printf("closed: %.0f verified ops/s and server %.3f µs CPU per verified op (calm decile of %d slices of %v); attempted %d failed %d\n",
		t.throughput, t.cpuPerOp, len(tput), c.slice, c.attempted, c.failed)
	fmt.Printf("open: %.0f frames/s scheduled, %d frames: p50 %.1fµs p99 %.1fµs from due time (calm decile of windows of at least %d frames, %d samples); sender late p99 %.1fµs; generator CPU %.2f of its one CPU; attempted %d failed %d\n",
		b.s.openFramesS, o.sent, t.p50, t.p99, openSliceFrames, n, o.latePercentileUS(99), o.cpuUtil(), o.attempted, o.failed)
	if valid {
		fmt.Println("open loop: VALID (the generator kept its schedule)")
	} else {
		fmt.Printf("open loop: INVALID: %s; the latencies measure the generator, not the server\n", why)
	}
	fmt.Printf("failed_ratio: %d / %d = %.6f\n", all.failed, all.attempted, t.failedRatio)
	if ph.selfCheck != nil {
		fmt.Printf("self-check: FAILED: %v\n", ph.selfCheck)
	} else {
		fmt.Println("self-check: ok (a corrupted expected value was counted as failed)")
	}
	return result{
		Correct:   all.failed == 0 && ph.selfCheck == nil,
		Attempted: all.attempted,
		Failed:    all.failed,
	}, t
}

// selfCheck proves the verifier counts a wrong answer: it sends one
// frame of the workload's own traffic on gc, verifies the response, and
// then verifies the same response again with one expected GET value
// corrupted, which must add exactly one failure. Frames whose GETs all
// fail already cannot show that, so it tries a few.
func selfCheck(gc *genConn) error {
	gc.c.SetDeadline(time.Now().Add(phaseGrace))
	for try := 0; try < 16; try++ {
		req, exp := gc.g.appendFrame(nil, nil)
		if _, err := gc.c.Write(req); err != nil {
			return err
		}
		tag, p, buf, err := wire.ReadFrame(gc.br, gc.rbuf)
		gc.rbuf = buf
		if err != nil {
			return err
		}
		base := verifyFrame(gc.g.s.frame, tag, p, exp)
		for k, e := range exp {
			if !e.get {
				continue
			}
			bad := append([]expect(nil), exp...)
			bad[k].want ^= 1
			switch verifyFrame(gc.g.s.frame, tag, p, bad) {
			case base + 1:
				return nil
			case base:
				continue // entry k was failing already
			default:
				return fmt.Errorf("one corrupted value changed the failure count from %d to something other than %d", base, base+1)
			}
		}
	}
	return fmt.Errorf("no frame had a verifiable GET; the check could not run")
}
