package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vmshortcut/client"
)

// syncBound bounds how long set-up waits for the store to report InSync
// after the preload. An expired wait ends set-up anyway and is reported
// (sceh.in_sync = 0); it never hangs or aborts the run.
const syncBound = 2 * time.Second

// preloadBatch is the PUTBATCH size of the preload.
const preloadBatch = 4096

// serverProc is one server process: the real ehserver, or the traced
// host (this binary in host role).
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	admin  string
	walDir string
	done   chan struct{} // closed once the process has exited
}

// live holds the running servers, so that the watchdog and the signal
// handler can stop every one of them before the benchmark exits.
var live = struct {
	sync.Mutex
	procs map[*serverProc]struct{}
}{procs: map[*serverProc]struct{}{}}

// stopAll stops every running server.
func stopAll() {
	live.Lock()
	ps := make([]*serverProc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// freeAddr reserves a loopback port and releases it for the server.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserving a port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer execs argv (a server binary and its leading arguments)
// with s's served flags plus a listen address, an admin address and, for
// durable workloads, a fresh WAL directory under dir. Server output goes
// to a log file under dir.
func startServer(argv []string, s spec, dir string, n int) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	admin, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &serverProc{addr: addr, admin: admin, done: make(chan struct{})}
	args := append(append([]string(nil), argv[1:]...), s.flags()...)
	args = append(args, "-addr", addr, "-admin", admin)
	if s.wal {
		p.walDir = filepath.Join(dir, fmt.Sprintf("wal-%d", n))
		if err := os.RemoveAll(p.walDir); err != nil {
			return nil, err
		}
		args = append(args, "-wal-dir", p.walDir)
	}
	logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("server-%d.log", n)))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	p.cmd = exec.Command(argv[0], args...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", argv[0], err)
	}
	go func() { p.cmd.Wait(); close(p.done) }()
	live.Lock()
	live.procs[p] = struct{}{}
	live.Unlock()
	return p, nil
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// waitListening polls until the server accepts connections.
func (p *serverProc) waitListening(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.DialTimeout("tcp", p.addr, time.Second)
		if err == nil {
			c.Close()
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("server exited before listening: %v", p.cmd.ProcessState)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not listening on %s after %v", p.addr, timeout)
		}
	}
}

// stop kills the server, waits for it to exit and removes its WAL.
func (p *serverProc) stop() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
	if p.walDir != "" {
		os.RemoveAll(p.walDir)
	}
}

// setupInfo describes one set-up: exec to ready.
type setupInfo struct {
	total    time.Duration // exec → ready
	preload  time.Duration
	syncWait time.Duration
	inSync   bool
	refused  int64        // preload keys the server refused
	stats    client.Stats // STATS at ready
}

// setUp starts a server and makes it ready: listening, preloaded with
// s.keys keys from seed, and reporting InSync — or the sync bound
// expired. The returned server is running; the caller stops it.
func setUp(argv []string, s spec, seed uint64, dir string, n int) (*serverProc, setupInfo, error) {
	t0 := time.Now()
	p, err := startServer(argv, s, dir, n)
	if err != nil {
		return nil, setupInfo{}, err
	}
	info, err := makeReady(p, s, seed, t0)
	if err != nil {
		p.stop()
		return nil, info, err
	}
	return p, info, nil
}

func makeReady(p *serverProc, s spec, seed uint64, t0 time.Time) (setupInfo, error) {
	var info setupInfo
	if err := p.waitListening(60 * time.Second); err != nil {
		return info, err
	}
	tl := time.Now()
	var err error
	if info.refused, err = preload(p.addr, s.keys, seed); err != nil {
		return info, err
	}
	ts := time.Now()
	info.preload = ts.Sub(tl)
	c, err := client.DialConnTimeout(p.addr, 5*time.Second)
	if err != nil {
		return info, err
	}
	defer c.Close()
	for {
		st, err := c.Stats()
		if err != nil {
			return info, fmt.Errorf("STATS: %w", err)
		}
		info.stats = st
		if st.Store.InSync {
			info.inSync = true
			break
		}
		if time.Since(ts) >= syncBound {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	now := time.Now()
	info.syncWait = now.Sub(ts)
	info.total = now.Sub(t0)
	return info, nil
}

// preload inserts keys [0, n) of seed's keyspace at version 0 over two
// connections, each loading half in PUTBATCH frames. A frame the server
// refuses (StatusErr, stream still aligned) does not stop the preload:
// its keys are counted as refused, and the GETs that miss them fail
// verification later.
func preload(addr string, n int, seed uint64) (refused int64, err error) {
	const conns = 2
	var wg sync.WaitGroup
	var mu sync.Mutex
	errs := make([]error, conns)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := client.DialConnTimeout(addr, 5*time.Second)
			if err != nil {
				errs[ci] = err
				return
			}
			defer c.Close()
			keys := make([]uint64, 0, preloadBatch)
			vals := make([]uint64, 0, preloadBatch)
			lo, hi := n*ci/conns, n*(ci+1)/conns
			for i := lo; i < hi; i += preloadBatch {
				keys, vals = keys[:0], vals[:0]
				for j := i; j < hi && j < i+preloadBatch; j++ {
					keys = append(keys, keyOf(seed, uint64(j)))
					vals = append(vals, valueOf(seed, uint64(j), 0))
				}
				if err := c.PutBatch(keys, vals); err != nil {
					if c.Err() != nil {
						errs[ci] = fmt.Errorf("preload: %w", err)
						return
					}
					mu.Lock()
					if refused == 0 {
						fmt.Printf("preload: server refused a batch: %v\n", err)
					}
					refused += int64(len(keys))
					mu.Unlock()
				}
			}
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return refused, err
		}
	}
	return refused, nil
}

// procCPUSeconds is pid's CPU time: the sum over its threads of the
// nanosecond run time in /proc/<pid>/task/*/schedstat. (The utime and
// stime fields of /proc/<pid>/stat count 10ms ticks, too coarse for
// 100ms slices.)
func procCPUSeconds(pid int) (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no threads of pid %d in /proc", pid)
	}
	var ns uint64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("malformed %s", t)
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s: %w", t, err)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// procHWMMB reads pid's peak resident set (VmHWM) in MiB.
func procHWMMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
