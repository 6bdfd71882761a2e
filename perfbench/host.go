package main

import (
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vmshortcut"
	"vmshortcut/internal/obs"
	"vmshortcut/internal/op"
	"vmshortcut/repl"
	"vmshortcut/server"
)

// Capture bounds: the arenas are allocated once at host start, so
// capturing allocates nothing on the served path.
const (
	captureOps     = 1 << 21
	captureBatches = 1 << 17
)

// span names of the traced store calls.
const (
	spanApply = iota
	spanLookup
	spanInsert
	numSpans
)

var spanNames = [numSpans]string{"ApplyBatch", "LookupBatch", "InsertBatch"}

// spanStat aggregates one store call's spans.
type spanStat struct {
	calls, ops, ns atomic.Int64
}

// tracedStore is a timing decorator around the served store: it records
// a span around every ApplyBatch, LookupBatch and InsertBatch call and,
// while capturing, copies each batch's shape and contents for the
// in-process ladder replay. Every other method — Stats, WaitSync, Range,
// Close — is the embedded store's own.
type tracedStore struct {
	vmshortcut.Store
	capturing atomic.Bool
	spans     [numSpans]spanStat

	mu    sync.Mutex // guards the capture arenas
	kinds []op.Kind
	keys  []uint64
	vals  []uint64
	ends  []int32 // end offset of each captured batch
}

func newTracedStore(s vmshortcut.Store) *tracedStore {
	return &tracedStore{
		Store: s,
		kinds: make([]op.Kind, 0, captureOps),
		keys:  make([]uint64, 0, captureOps),
		vals:  make([]uint64, 0, captureOps),
		ends:  make([]int32, 0, captureBatches),
	}
}

func (t *tracedStore) ApplyBatch(b *vmshortcut.OpBatch, r *vmshortcut.OpResults) error {
	start := time.Now()
	err := t.Store.ApplyBatch(b, r)
	t.finish(spanApply, start, b.Kinds(), 0, b.Keys(), b.Vals())
	return err
}

func (t *tracedStore) LookupBatch(keys []uint64, out []uint64) []bool {
	start := time.Now()
	found := t.Store.LookupBatch(keys, out)
	t.finish(spanLookup, start, nil, op.Get, keys, nil)
	return found
}

func (t *tracedStore) InsertBatch(keys, values []uint64) error {
	start := time.Now()
	err := t.Store.InsertBatch(keys, values)
	t.finish(spanInsert, start, nil, op.Put, keys, values)
	return err
}

// finish records a span over keys that began at start and, while
// capturing with room left, appends the batch: entry i is kinds[i] (or
// kind when kinds is nil), keys[i] and vals[i] (or 0 when vals is nil).
func (t *tracedStore) finish(span int, start time.Time, kinds []op.Kind, kind op.Kind, keys, vals []uint64) {
	if !t.capturing.Load() {
		return
	}
	ns := int64(time.Since(start))
	s := &t.spans[span]
	s.calls.Add(1)
	s.ops.Add(int64(len(keys)))
	s.ns.Add(ns)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.keys)+len(keys) > cap(t.keys) || len(t.ends) == cap(t.ends) {
		return
	}
	for i, k := range keys {
		if kinds != nil {
			kind = kinds[i]
		}
		var v uint64
		if vals != nil {
			v = vals[i]
		}
		t.kinds = append(t.kinds, kind)
		t.keys = append(t.keys, k)
		t.vals = append(t.vals, v)
	}
	t.ends = append(t.ends, int32(len(t.keys)))
}

// startCapture clears the spans and arenas and starts recording.
func (t *tracedStore) startCapture() {
	t.mu.Lock()
	t.kinds, t.keys, t.vals = t.kinds[:0], t.keys[:0], t.vals[:0]
	t.ends = t.ends[:0]
	for i := range t.spans {
		t.spans[i].calls.Store(0)
		t.spans[i].ops.Store(0)
		t.spans[i].ns.Store(0)
	}
	t.mu.Unlock()
	t.capturing.Store(true)
}

// hostState is the traced host's report: span aggregates and the bytes
// the Go runtime has allocated.
type hostState struct {
	Spans      map[string]spanReport `json:"spans"`
	TotalAlloc uint64                `json:"total_alloc"`
}

type spanReport struct {
	Calls int64 `json:"calls"`
	Ops   int64 `json:"ops"`
	NS    int64 `json:"ns"`
}

func (t *tracedStore) state() hostState {
	st := hostState{Spans: map[string]spanReport{}}
	for i := range t.spans {
		s := &t.spans[i]
		st.Spans[spanNames[i]] = spanReport{Calls: s.calls.Load(), Ops: s.ops.Load(), NS: s.ns.Load()}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.TotalAlloc = ms.TotalAlloc
	return st
}

// capture is the captured batches as shipped to the ladder replay.
type capture struct {
	Kinds []op.Kind
	Keys  []uint64
	Vals  []uint64
	Ends  []int32
}

// stopCapture stops recording and hands out the arenas' contents.
func (t *tracedStore) stopCapture() capture {
	t.capturing.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	return capture{Kinds: t.kinds, Keys: t.keys, Vals: t.vals, Ends: t.ends}
}

// hostMain serves a store the way cmd/ehserver does for the flags the
// workloads use, with the store wrapped in a tracedStore. The admin
// listener serves the server's own admin handler plus the capture
// controls under /perfbench/.
func hostMain(args []string) error {
	fs := flag.NewFlagSet("host", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	adminAddr := fs.String("admin", "", "admin HTTP listen address")
	kindName := fs.String("kind", "shortcut-eh", "index kind")
	shards := fs.Int("shards", 1, "shards")
	walDir := fs.String("wal-dir", "", "WAL directory")
	fsync := fs.String("fsync", "always", "WAL fsync policy")
	fsyncInterval := fs.Duration("fsync-interval", 0, "background fsync period for -fsync interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := vmshortcut.ParseKind(*kindName)
	if err != nil {
		return err
	}
	// The options mirror cmd/ehserver's for the flags above; every other
	// ehserver flag stays at its default.
	metrics := server.NewMetrics(obs.NewRegistry())
	opts := []vmshortcut.Option{
		vmshortcut.WithShards(*shards),
		vmshortcut.WithConcurrency(true),
		vmshortcut.WithSeqlockRetryHist(metrics.Registry().Hist(
			"eh_seqlock_retry_attempts",
			"Retries needed per successful optimistic GET pass.")),
	}
	var lsnTraces *obs.LSNTraces
	if *walDir != "" {
		mode, err := vmshortcut.ParseFsyncMode(*fsync)
		if err != nil {
			return err
		}
		lsnTraces = obs.NewLSNTraces(4096)
		opts = append(opts, vmshortcut.WithWAL(*walDir), vmshortcut.WithFsync(mode),
			vmshortcut.WithFsyncHist(metrics.Pipeline().Hist(obs.StageWALFsync)),
			vmshortcut.WithLSNTraces(lsnTraces))
		if *fsyncInterval > 0 {
			opts = append(opts, vmshortcut.WithFsyncInterval(*fsyncInterval))
		}
	}
	store, err := vmshortcut.Open(kind, opts...)
	if err != nil {
		return fmt.Errorf("open %s: %w", kind, err)
	}
	defer store.Close()
	ts := newTracedStore(store)
	scfg := server.Config{
		Store:    ts,
		MaxBatch: server.DefaultMaxBatch,
		Logf:     log.Printf,
		Metrics:  metrics,
		SlowOp:   10 * time.Millisecond,
	}
	// Replication sees the inner store: vmshortcut.AsReplicable and
	// AsDurable match the concrete durable type, which no decorator can
	// be. The server's own AsDurable check therefore fails on the
	// decorator, so the traced host lacks only the eh_wal_* gauges; the
	// WAL counters still reach STATS through Stats.
	if rep, ok := vmshortcut.AsReplicable(store); ok {
		src := repl.NewSource(rep, repl.SourceConfig{
			Traces: lsnTraces, Recorder: metrics.Recorder(), Logf: log.Printf,
		})
		defer src.Close()
		scfg.Repl = src
	}
	srv, err := server.New(scfg)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.AdminHandler())
	mux.HandleFunc("/perfbench/capture", func(w http.ResponseWriter, r *http.Request) {
		ts.startCapture()
	})
	mux.HandleFunc("/perfbench/state", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(ts.state())
	})
	mux.HandleFunc("/perfbench/batches", func(w http.ResponseWriter, r *http.Request) {
		if err := gob.NewEncoder(w).Encode(ts.stopCapture()); err != nil {
			log.Printf("perfbench host: sending capture: %v", err)
		}
	})
	adminLn, err := net.Listen("tcp", *adminAddr)
	if err != nil {
		return fmt.Errorf("admin listen: %w", err)
	}
	go http.Serve(adminLn, mux)
	return srv.ListenAndServe(*addr)
}
