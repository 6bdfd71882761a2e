package sceh

import (
	"sync"
	"testing"
	"time"

	"vmshortcut/internal/workload"
)

// The tests in this file run a Table under the readers-writer discipline
// the facade's concurrent stores put around it: any number of concurrent
// Lookups, exclusive Insert/Delete, and the mapper thread taking no part
// in the lock. They check that the version protocol alone keeps lookups
// correct against the mapper while the lock orders the callers.

// rwTable guards a Table with a readers-writer lock.
type rwTable struct {
	mu sync.RWMutex
	t  *Table
}

func (c *rwTable) Insert(key, value uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Insert(key, value)
}

func (c *rwTable) Delete(key uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Delete(key)
}

func (c *rwTable) Lookup(key uint64) (uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Lookup(key)
}

func (c *rwTable) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Len()
}

func (c *rwTable) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Stats()
}

func TestConcurrentMixedWorkload(t *testing.T) {
	c := &rwTable{t: newTable(t, Config{PollInterval: time.Millisecond})}

	const writers = 2
	const readers = 4
	const perWriter = 15000

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	// Writers own disjoint key ranges; value == key.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * perWriter
			for i := uint64(0); i < perWriter; i++ {
				if err := c.Insert(base+i+1, base+i+1); err != nil {
					errs <- err
					return
				}
				if i%7 == 0 {
					c.Delete(base + i/2 + 1)
				}
			}
			errs <- nil
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := workload.NewRNG(seed)
			for i := 0; i < 40000; i++ {
				k := uint64(rng.Intn(writers*perWriter)) + 1
				if v, ok := c.Lookup(k); ok && v != k {
					errs <- errValue(k, v)
					return
				}
			}
			errs <- nil
		}(uint64(r + 100))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if !c.t.WaitSync(10 * time.Second) {
		t.Fatal("never synced")
	}
	// Verify all surviving keys (deletions removed some of the first half
	// of each writer's range).
	for w := 0; w < writers; w++ {
		base := uint64(w) * perWriter
		for i := uint64(perWriter/2 + 1); i < perWriter; i++ {
			k := base + i + 1
			if v, ok := c.Lookup(k); !ok || v != k {
				t.Fatalf("key %d = %d,%v", k, v, ok)
			}
		}
	}
}

func TestConcurrentLenAndStats(t *testing.T) {
	c := &rwTable{t: newTable(t, Config{PollInterval: time.Millisecond})}
	for k := uint64(1); k <= 1000; k++ {
		if err := c.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d", c.Len())
	}
	if !c.t.WaitSync(5 * time.Second) {
		t.Fatal("never synced")
	}
	if v, ok := c.Lookup(5); !ok || v != 5 {
		t.Fatalf("Lookup(5) = %d,%v", v, ok)
	}
	s := c.Stats()
	if s.ShortcutLookups+s.TraditionalLookups == 0 {
		t.Fatal("lookup stats not counted")
	}
	if c.t.EH().Len() != 1000 {
		t.Fatalf("EH().Len = %d", c.t.EH().Len())
	}
}
