package vmshortcut

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmshortcut/internal/obs"
	"vmshortcut/internal/op"
)

// applyGets drives one pure-GET batch through ApplyBatch, the serve
// path the fast path fronts.
func applyGets(t *testing.T, s Store, b *op.Batch, res *op.Results, keys ...uint64) {
	t.Helper()
	b.Reset()
	for _, k := range keys {
		b.Get(k)
	}
	if err := s.ApplyBatch(b, res); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
}

func TestHTIKeepsLockedPath(t *testing.T) {
	// KindHTI reads migrate entries: readSafe is off, and every GET must
	// be served under the lock.
	s, err := Open(KindHTI, WithConcurrency(true))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := uint64(0); i < 32; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	var b op.Batch
	var res op.Results
	for round := 0; round < 5; round++ {
		applyGets(t, s, &b, &res, 1, 2, 3)
	}
	st := s.Stats()
	if st.FastpathSeqlockReads != 0 {
		t.Fatalf("KindHTI took a lock-free path: %+v", st)
	}
	if st.FastpathLockedReads == 0 {
		t.Fatalf("KindHTI locked GETs not counted: %+v", st)
	}
}

// TestFastpathNeverServesStaleReads is the linearizability spot-check
// for the seqlock validation: writers hammer overwrites into a two-shard
// store while readers sit on the lock-free GET path, and every read must
// observe a value at least as new as the last overwrite the writer had
// acknowledged before the read began. Values per key are monotonically
// increasing, so "stale after ack" is a single compare. The seqlock is
// compiled out under -race, so only a plain `go test` run exercises it;
// a -race run checks the locked path the fast path falls back to.
func TestFastpathNeverServesStaleReads(t *testing.T) {
	s, err := Open(KindHT, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const keys = 16
	var acked [keys]atomic.Uint64 // floor: highest value acked per key
	for k := uint64(0); k < keys; k++ {
		if err := s.Insert(k, 1); err != nil {
			t.Fatal(err)
		}
		acked[k].Store(1)
	}

	deadline := time.Now().Add(500 * time.Millisecond)
	if testing.Short() {
		deadline = time.Now().Add(100 * time.Millisecond)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// One writer per key parity, overwriting with increasing values.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var b op.Batch
			var res op.Results
			for v := uint64(2); time.Now().Before(deadline); v++ {
				for k := uint64(w); k < keys; k += 2 {
					b.Reset()
					b.Put(k, v)
					if err := s.ApplyBatch(&b, &res); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
					// The write is acked: publish the new floor. A reader
					// that starts after this store must see >= v.
					acked[k].Store(v)
				}
			}
		}(w)
	}

	readErr := make(chan string, 1)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b op.Batch
			var res op.Results
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Load the floors BEFORE the read: the read linearizes
				// after these loads, so it must return at least them.
				var floor [keys]uint64
				b.Reset()
				for k := uint64(0); k < keys; k++ {
					floor[k] = acked[k].Load()
					b.Get(k)
				}
				if err := s.ApplyBatch(&b, &res); err != nil {
					select {
					case readErr <- err.Error():
					default:
					}
					return
				}
				for k := uint64(0); k < keys; k++ {
					if !res.Found[k] || res.Vals[k] < floor[k] {
						select {
						case readErr <- "stale read: key " + itoa(k) + " returned " +
							itoa(res.Vals[k]) + " after value " + itoa(floor[k]) + " was acked":
						default:
						}
						return
					}
				}
			}
		}()
	}

	for time.Now().Before(deadline) {
		select {
		case msg := <-readErr:
			close(stop)
			wg.Wait()
			t.Fatal(msg)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-readErr:
		t.Fatal(msg)
	default:
	}

	st := s.Stats()
	if st.FastpathSeqlockReads+st.FastpathLockedReads == 0 {
		t.Fatal("no GET entries counted on any fast-path level")
	}
	if !raceEnabled && st.FastpathSeqlockReads == 0 {
		t.Fatalf("no GET entry took the seqlock path: %+v", st)
	}
	t.Logf("reads: seqlock=%d locked=%d retries=%d fallbacks=%d",
		st.FastpathSeqlockReads, st.FastpathLockedReads,
		st.SeqlockRetries, st.SeqlockFallbacks)
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestSeqlockRetryHistRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("seqlock path is disabled under -race")
	}
	reg := obs.NewRegistry()
	h := reg.Hist("test_seqlock_retries", "retries per optimistic read")
	s, err := Open(KindEH, WithConcurrency(true), WithSeqlockRetryHist(h))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := uint64(0); i < 16; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	var b op.Batch
	var res op.Results
	applyGets(t, s, &b, &res, 1, 2, 3)
	if h.Count() == 0 {
		t.Fatal("seqlock retry histogram recorded nothing for an optimistic read")
	}
	if st := s.Stats(); st.FastpathSeqlockReads != 3 {
		t.Fatalf("FastpathSeqlockReads = %d, want 3 (%+v)", st.FastpathSeqlockReads, st)
	}
}

func TestClosedBatchPathsDoNotAllocate(t *testing.T) {
	s, err := Open(KindHT, WithConcurrency(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	keys := []uint64{1, 2, 3}
	out := make([]uint64, 3)
	if n := testing.AllocsPerRun(100, func() {
		found := s.LookupBatch(keys, out)
		for i := range found {
			if found[i] {
				t.Error("closed LookupBatch reported a hit")
			}
		}
	}); n != 0 {
		t.Fatalf("closed LookupBatch allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		found := s.DeleteBatch(keys)
		for i := range found {
			if found[i] {
				t.Error("closed DeleteBatch reported a hit")
			}
		}
	}); n != 0 {
		t.Fatalf("closed DeleteBatch allocates %.1f times per call, want 0", n)
	}
}

// TestOptimisticReadsSurviveDirectoryDoubling races large pure-GET
// batches, through ApplyBatch and LookupBatch, against writes that keep
// doubling and halving Shortcut-EH's directory. Creates then follow each
// other back to back — under synchronous maintenance on the writer goroutine, with
// a 1ms poll several per mapper tick — so a lock-free pass that pinned a
// shortcut generation sees it retired while it reads. The generation
// must stay mapped until the pass ends (a read of unmapped memory kills
// the process), and every validated answer must be right.
func TestOptimisticReadsSurviveDirectoryDoubling(t *testing.T) {
	for _, c := range []struct {
		name string
		opts []Option
	}{
		{"sync", []Option{WithSynchronousMaintenance(true)}},
		{"poll1ms", []Option{WithPollInterval(time.Millisecond)}},
	} {
		for _, shards := range []int{1, 2} {
			t.Run(c.name+"/shards="+itoa(uint64(shards)), func(t *testing.T) {
				s, err := Open(KindShortcutEH, append([]Option{WithShards(shards), WithConcurrency(true), WithMergeLoadFactor(0.25)}, c.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				raceDoublings(t, s)
			})
		}
	}
}

func raceDoublings(t *testing.T, s Store) {
	const stable = seqlockMaxKeys // keys the readers check; never rewritten
	for k := uint64(0); k < stable; k++ {
		if err := s.Insert(k, k*3+1); err != nil {
			t.Fatal(err)
		}
	}
	budget := 300 * time.Millisecond
	if testing.Short() {
		budget = 100 * time.Millisecond
	}
	deadline := time.Now().Add(budget)
	var wg sync.WaitGroup
	var writing, failed atomic.Bool
	writing.Store(true)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writing.Store(false)
		// Grow the table by a block of fresh keys, then delete the block:
		// buckets split and merge, so the directory doubles and halves
		// again and again, and every doubling or halving is a create.
		const block = 1 << 10
		for time.Now().Before(deadline) && !failed.Load() {
			for k := uint64(1 << 40); k < 1<<40+block; k++ {
				if err := s.Insert(k, k); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
			for k := uint64(1 << 40); k < 1<<40+block; k++ {
				s.Delete(k)
			}
		}
	}()
	// One reader, so the writer keeps a CPU on a two-CPU host: a writer
	// starved of CPU makes too few creates to retire a generation under a
	// pass.
	var b op.Batch
	var res op.Results
	keys := make([]uint64, stable)
	out := make([]uint64, stable)
	for i := range keys {
		keys[i] = uint64(i)
	}
	for pass := 0; writing.Load() && !failed.Load(); pass++ {
		var found []bool
		var vals []uint64
		if pass%2 == 0 {
			b.Reset()
			for _, k := range keys {
				b.Get(k)
			}
			if err := s.ApplyBatch(&b, &res); err != nil {
				t.Errorf("ApplyBatch: %v", err)
				failed.Store(true)
				break
			}
			found, vals = res.Found, res.Vals
		} else {
			found, vals = s.LookupBatch(keys, out), out
		}
		for i, k := range keys {
			if !found[i] || vals[i] != k*3+1 {
				t.Errorf("pass %d: key %d = (%d, %v), want (%d, true)", pass, k, vals[i], found[i], k*3+1)
				failed.Store(true)
				break
			}
		}
	}
	wg.Wait()
	if failed.Load() {
		return
	}
	st := s.Stats()
	if st.CreatesApplied < 4 {
		t.Fatalf("only %d shortcut creates: the writer never retired a generation", st.CreatesApplied)
	}
	t.Logf("creates=%d seqlock reads=%d retries=%d fallbacks=%d", st.CreatesApplied,
		st.FastpathSeqlockReads, st.SeqlockRetries, st.SeqlockFallbacks)
}
