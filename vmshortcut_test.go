package vmshortcut

import (
	"bytes"
	"testing"
	"time"
)

// TestFacadeIndexes drives every hash-index kind, opened through Open,
// through the Index interface — the integration test of the public API.
func TestFacadeIndexes(t *testing.T) {
	indexes := map[string]Index{}
	for _, c := range []struct {
		kind Kind
		opts []Option
	}{
		{KindHT, nil},
		{KindHTI, nil},
		{KindCH, []Option{WithTableBytes(1 << 16)}},
		{KindEH, nil},
		{KindShortcutEH, []Option{WithPollInterval(time.Millisecond)}},
	} {
		s, err := Open(c.kind, c.opts...)
		if err != nil {
			t.Fatalf("Open(%s): %v", c.kind, err)
		}
		defer s.Close()
		indexes[c.kind.String()] = s
	}
	const n = 20000
	for name, idx := range indexes {
		for k := uint64(1); k <= n; k++ {
			if err := idx.Insert(k, k*2); err != nil {
				t.Fatalf("%s: Insert(%d): %v", name, k, err)
			}
		}
		if idx.Len() != n {
			t.Fatalf("%s: Len = %d", name, idx.Len())
		}
		for k := uint64(1); k <= n; k += 7 {
			v, ok := idx.Lookup(k)
			if !ok || v != k*2 {
				t.Fatalf("%s: Lookup(%d) = %d,%v", name, k, v, ok)
			}
		}
		if !idx.Delete(5) || idx.Delete(5) {
			t.Fatalf("%s: delete semantics broken", name)
		}
		if idx.Len() != n-1 {
			t.Fatalf("%s: Len after delete = %d", name, idx.Len())
		}
	}
}

// TestFacadeRadixAndSnapshot exercises the extension APIs end to end:
// the radix map and the EH snapshot, each recovered from an Open store.
func TestFacadeRadixAndSnapshot(t *testing.T) {
	// Radix map.
	rs, err := Open(KindRadix, WithCapacity(100000))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	m, ok := AsRadixMap(rs)
	if !ok {
		t.Fatal("AsRadixMap failed on a KindRadix store")
	}
	for k := uint64(0); k < 100000; k += 17 {
		if err := m.Set(k, k*2); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 100000; k += 17 {
		if v, ok := m.Get(k); !ok || v != k*2 {
			t.Fatalf("radix Get(%d) = %d,%v", k, v, ok)
		}
	}

	// EH snapshot through the facade.
	es, err := Open(KindEH)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	src, ok := AsExtendibleHashing(es)
	if !ok {
		t.Fatal("AsExtendibleHashing failed on a KindEH store")
	}
	for k := uint64(0); k < 10000; k++ {
		src.Insert(k, k+5)
	}
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	dst, err := RestoreExtendibleHashing(p, ExtendibleConfig{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 10000; k += 101 {
		if v, ok := dst.Lookup(k); !ok || v != k+5 {
			t.Fatalf("restored Lookup(%d) = %d,%v", k, v, ok)
		}
	}
}

// TestFacadeRewiring exercises the node-level public API end to end.
func TestFacadeRewiring(t *testing.T) {
	p, err := NewPool(PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	refs, err := p.AllocN(4)
	if err != nil {
		t.Fatal(err)
	}
	trad := NewTraditionalNode(p, 4)
	for i, r := range refs {
		p.Page(r)[0] = byte(i + 1)
		trad.Set(i, r)
	}
	sc, err := NewShortcutNode(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.SetFromTraditional(trad, true); err != nil {
		t.Fatal(err)
	}
	for i := range refs {
		if sc.Leaf(i)[0] != trad.Leaf(i)[0] {
			t.Fatalf("slot %d differs between access paths", i)
		}
	}
	// Shortcut-EH visibility through the facade types.
	if sc.Leaf(2)[0] != 3 {
		t.Fatal("leaf content wrong")
	}
}
