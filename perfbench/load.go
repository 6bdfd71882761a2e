package main

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"vmshortcut/internal/wire"
)

// pipelineDepth is the closed loop's frames in flight per connection.
const pipelineDepth = 32

// genConn is one generator connection with its operation stream.
type genConn struct {
	c    net.Conn
	br   *bufio.Reader
	g    *opGen
	rbuf []byte
}

func dialGen(addr string, g *opGen) (*genConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &genConn{c: c, br: bufio.NewReaderSize(c, 256<<10), g: g}, nil
}

func (gc *genConn) close() { gc.c.Close() }

// phaseGrace is how long past its end a phase may wait for responses
// before the connection times out: a hung server fails the run instead
// of hanging it.
const phaseGrace = 30 * time.Second

func setDeadlines(conns []*genConn, t time.Time) {
	for _, gc := range conns {
		gc.c.SetDeadline(t)
	}
}

// readVerify reads one response frame and verifies it against exp.
func (gc *genConn) readVerify(exp []expect) (failed int, err error) {
	tag, p, buf, err := wire.ReadFrame(gc.br, gc.rbuf)
	gc.rbuf = buf
	if err != nil {
		return len(exp), fmt.Errorf("reading response: %w", err)
	}
	return verifyFrame(gc.g.s.frame, tag, p, exp), nil
}

// tally counts ops attempted and failed.
type tally struct{ attempted, failed int64 }

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

// closedStats is one closed-loop phase: verified ops completed per time
// slice, the server CPU each slice cost, and the op tally.
type closedStats struct {
	slice    time.Duration
	verified []int64   // per slice
	cpuS     []float64 // server CPU seconds per slice (nil without a pid)
	tally
}

// runClosed drives every connection in a closed loop — write
// pipelineDepth frames, read their responses, repeat — for d, split into
// slices windows. With pid > 0 it samples the server's CPU time at each
// slice boundary.
func runClosed(conns []*genConn, d time.Duration, slices, pid int) (closedStats, error) {
	st := closedStats{slice: d / time.Duration(slices), verified: make([]int64, slices)}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	setDeadlines(conns, start.Add(d+phaseGrace))
	stopCPU := make(chan struct{})
	cpuDone := make(chan []float64, 1)
	if pid > 0 {
		go func() { cpuDone <- sampleCPU(pid, start, st.slice, slices, stopCPU) }()
	}
	for _, gc := range conns {
		wg.Add(1)
		go func(gc *genConn) {
			defer wg.Done()
			local := make([]int64, slices)
			var t tally
			var req []byte
			var exp []expect
			per := gc.g.s.opsPerFrame
			for time.Since(start) < d {
				req, exp = req[:0], exp[:0]
				for k := 0; k < pipelineDepth; k++ {
					req, exp = gc.g.appendFrame(req, exp)
				}
				if _, err := gc.c.Write(req); err != nil {
					mu.Lock()
					firstErr = fmt.Errorf("closed loop write: %w", err)
					mu.Unlock()
					return
				}
				roundFailed := 0
				for k := 0; k < pipelineDepth; k++ {
					f, err := gc.readVerify(exp[k*per : (k+1)*per])
					roundFailed += f
					if err != nil {
						mu.Lock()
						firstErr = err
						mu.Unlock()
						return
					}
				}
				t.attempted += int64(len(exp))
				t.failed += int64(roundFailed)
				if s := int(time.Since(start) / st.slice); s < slices {
					local[s] += int64(len(exp) - roundFailed)
				}
			}
			mu.Lock()
			for i, v := range local {
				st.verified[i] += v
			}
			st.tally.add(t)
			mu.Unlock()
		}(gc)
	}
	wg.Wait()
	close(stopCPU)
	if pid > 0 {
		st.cpuS = <-cpuDone
	}
	return st, firstErr
}

// sampleCPU reads pid's CPU time at start and at each slice boundary and
// returns the CPU seconds spent in each slice.
func sampleCPU(pid int, start time.Time, slice time.Duration, slices int, stop <-chan struct{}) []float64 {
	out := make([]float64, slices)
	prev, _ := procCPUSeconds(pid)
	for i := 0; i < slices; i++ {
		select {
		case <-time.After(time.Until(start.Add(time.Duration(i+1) * slice))):
		case <-stop:
			return out[:i]
		}
		cur, err := procCPUSeconds(pid)
		if err != nil {
			return out[:i]
		}
		out[i] = cur - prev
		prev = cur

	}
	return out
}

// openSlots bounds an open-loop connection's frames in flight. A full
// window blocks the sender, which then runs late — and says so in its
// lateness figures — instead of growing memory without bound.
const openSlots = 8192

// openTick groups an open loop's due times: every frame falls due on a
// tick boundary, so each tick releases a burst of rate×tick frames per
// connection, the way many independent clients' requests arrive
// together at a server, and the sender wakes once per tick rather than
// once per frame.
const openTick = time.Millisecond

// openStats is one open-loop phase: per-frame latency from the frame's
// due time, bucketed by due-time slice, how late the sender wrote each
// frame, and the generator's own CPU use.
type openStats struct {
	slice   time.Duration
	latNS   [][]int64 // per slice
	lateNS  []int64
	due     int64 // frames scheduled in the phase
	sent    int64
	genCPU  float64 // generator CPU seconds during the phase
	elapsed time.Duration
	tally
}

type openSlot struct {
	due time.Duration
	exp []expect
}

// runOpen sends frames on a fixed schedule of rate frames per second
// (split evenly across the connections) for d. Each connection has a
// sender that writes every frame that has come due and a reader that
// times each response from its frame's due time, so a stall delays the
// clock of every frame queued behind it.
func runOpen(conns []*genConn, rate float64, d time.Duration) (openStats, error) {
	slices := openSlices(rate, d)
	st := openStats{slice: d / time.Duration(slices), latNS: make([][]int64, slices)}
	var mu sync.Mutex
	var firstErr error
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	interval := time.Duration(float64(time.Second) * float64(len(conns)) / rate)
	cpu0 := selfCPUSeconds()
	start := time.Now()
	setDeadlines(conns, start.Add(d+phaseGrace))
	var wg sync.WaitGroup
	for ci, gc := range conns {
		wg.Add(2)
		offset := openTick * time.Duration(ci) / time.Duration(len(conns))
		dueOf := func(i int64) time.Duration { return offset + (time.Duration(i) * interval).Truncate(openTick) }
		slots := make([]openSlot, openSlots)
		free := make(chan int, openSlots)
		inflight := make(chan int, openSlots)
		for i := range slots {
			free <- i
		}
		go func(gc *genConn) { // sender
			defer wg.Done()
			// The sender owns its thread so that sleep's nanosleep
			// parks only this goroutine.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			defer close(inflight)
			var late []int64
			var req []byte
			var pending []int
			var next int64
			flush := func() bool {
				if len(pending) == 0 {
					return true
				}
				if _, err := gc.c.Write(req); err != nil {
					setErr(fmt.Errorf("open loop write: %w", err))
					return false
				}
				sent := time.Since(start)
				for _, s := range pending {
					late = append(late, int64(sent-slots[s].due))
					inflight <- s
				}
				req, pending = req[:0], pending[:0]
				return true
			}
			for dueOf(next) < d {
				now := time.Since(start)
				for dueOf(next) <= now && dueOf(next) < d {
					var s int
					select {
					case s = <-free:
					default:
						// Window full: hand over what is built, then wait
						// for the reader to free a slot.
						if !flush() {
							return
						}
						s = <-free
					}
					slots[s].due = dueOf(next)
					req, slots[s].exp = gc.g.appendFrame(req, slots[s].exp[:0])
					pending = append(pending, s)
					next++
				}
				if !flush() {
					return
				}
				if wait := dueOf(next) - time.Since(start); wait > 0 && dueOf(next) < d {
					sleep(wait)
				}
			}
			mu.Lock()
			st.due += next
			st.sent += int64(len(late))
			st.lateNS = append(st.lateNS, late...)
			mu.Unlock()
		}(gc)
		go func(gc *genConn) { // reader
			defer wg.Done()
			lat := make([][]int64, slices)
			var t tally
			broken := false
			for s := range inflight {
				if broken {
					free <- s // keep draining so the sender never blocks
					continue
				}
				exp := slots[s].exp
				f, err := gc.readVerify(exp)
				recv := time.Since(start)
				t.attempted += int64(len(exp))
				t.failed += int64(f)
				if err != nil {
					setErr(err)
					broken = true
					gc.c.Close() // unblocks the sender's writes
				} else if b := int(slots[s].due / st.slice); b < slices {
					lat[b] = append(lat[b], int64(recv-slots[s].due))
				}
				free <- s
			}
			mu.Lock()
			for i := range lat {
				st.latNS[i] = append(st.latNS[i], lat[i]...)
			}
			st.tally.add(t)
			mu.Unlock()
		}(gc)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	st.genCPU = selfCPUSeconds() - cpu0
	return st, firstErr
}

// sleep waits d. The runtime's timers wake sub-millisecond sleeps up
// to a millisecond late, and later still on an idle virtual machine; a
// nanosleep on the calling thread wakes within tens of microseconds.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// openSlices splits an open-loop phase into slices of at least 20ms
// and openSliceFrames frames.
func openSlices(rate float64, d time.Duration) int {
	sl := time.Duration(float64(time.Second) * openSliceFrames / rate)
	if sl < 20*time.Millisecond {
		sl = 20 * time.Millisecond
	}
	n := int(d / sl)
	if n < 1 {
		n = 1
	}
	return n
}

const openSliceFrames = 1000

// latePercentileUS is the sender's lateness percentile, microseconds.
func (o openStats) latePercentileUS(p float64) float64 {
	return percentile(o.lateNS, p) / 1e3
}

// cpuUtil is the generator's CPU time during the phase as a share of
// its one CPU.
func (o openStats) cpuUtil() float64 {
	return o.genCPU / o.elapsed.Seconds()
}

// calmLatencyUS returns the open loop's p50 and p99 latency in
// microseconds, each the calm decile (see calm) of the per-slice
// percentile, and the sample count.
func (o openStats) calmLatencyUS() (p50, p99 float64, n int) {
	var s50, s99 []float64
	for _, l := range o.latNS {
		n += len(l)
		if len(l) > 0 {
			s50 = append(s50, percentile(l, 50)/1e3)
			s99 = append(s99, percentile(l, 99)/1e3)
		}
	}
	return calm(s50, false), calm(s99, false), n
}

// validity judges whether the generator kept its schedule: a sender
// that never sent some frames, or sent the median frame over
// openLateLimit late, measured its own backlog, not the server. Tail
// lateness alone does not invalidate a run: a stall of the whole
// machine delays the sender and the server alike, and the latencies,
// timed from the due time, already include it.
func (o openStats) validity() (bool, string) {
	if o.sent < o.due {
		return false, fmt.Sprintf("sent %d of %d scheduled frames", o.sent, o.due)
	}
	if p := o.latePercentileUS(50); p > openLateLimit.Seconds()*1e6 {
		return false, fmt.Sprintf("sender lateness p50 %.0fµs exceeds %v", p, openLateLimit)
	}
	return true, ""
}

// openLateLimit is the median sender lateness beyond which an open-loop
// run is reported invalid.
const openLateLimit = time.Millisecond

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// percentile returns the p-th percentile (nearest rank) of vs, sorting
// vs in place.
func percentile(vs []int64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	i := int(p / 100 * float64(len(vs)))
	if i >= len(vs) {
		i = len(vs) - 1
	}
	return float64(vs[i])
}

// calm summarises per-slice figures by their calm decile: the 90th
// percentile of the slices when higher is better, the 10th when lower
// is better. On a shared virtual machine the hypervisor steals CPU in
// bursts (a third of a slice is common, and whole minutes run at half
// speed), which only ever slows a slice down; the calm decile tracks
// the program's own cost and not its neighbours', as long as a tenth of
// the slices run undisturbed.
func calm(vs []float64, higherBetter bool) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := 0.1
	if higherBetter {
		q = 0.9
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// median returns the median of vs (0 for none), without modifying vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
