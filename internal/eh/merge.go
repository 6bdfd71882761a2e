package eh

import (
	"vmshortcut/internal/bucket"
	"vmshortcut/internal/hashfn"
	"vmshortcut/internal/pool"
)

// Bucket merging and directory halving — the classical extendible-hashing
// coalescing step that the paper's prototype (like most implementations)
// leaves out. When enabled, a delete that leaves a bucket underfull merges
// it with its buddy bucket (the bucket whose hash prefix differs only in
// the last of the ld bits), and when no bucket uses the full global depth
// anymore the directory is halved. Both operations are directory
// modifications: they increment the version and are reported to the event
// subscriber so a shortcut directory replays them like splits and
// doublings.

// MergeEvent reports a bucket merge: directory slots [Lo, Hi) now all
// reference the merged page Ref.
type MergeEvent struct {
	Version uint64
	Lo, Hi  uint64
	Ref     pool.Ref
}

// HalveEvent reports a directory halving. Refs is a snapshot of every
// slot's page ref after the halving, in slot order.
type HalveEvent struct {
	Version     uint64
	GlobalDepth uint
	Refs        []pool.Ref
}

func (MergeEvent) isEvent() {}
func (HalveEvent) isEvent() {}

// maybeMerge coalesces the bucket at directory slot idx with its buddy if
// both are shallow enough to combine. Called after a delete when merging
// is enabled. Returns whether a merge happened.
func (t *Table) maybeMerge(idx uint64) bool {
	b := bucket.ViewAddr(t.dir[idx])
	ld := b.LocalDepth()
	if ld == 0 {
		return false // single bucket, nothing to merge with
	}
	// The buddy shares the (ld-1)-bit prefix and differs in bit ld-1.
	lo, hi := prefixRangeAt(idx, ld, t.gd)
	span := hi - lo
	var buddyLo uint64
	if (lo/span)%2 == 0 {
		buddyLo = lo + span
	} else {
		buddyLo = lo - span
	}
	buddy := bucket.ViewAddr(t.dir[buddyLo])
	if buddy.LocalDepth() != ld {
		return false // buddy is deeper; cannot merge yet
	}
	if b.Count()+buddy.Count() > t.mergeFill {
		return false
	}

	// Allocate the merged bucket at depth ld-1 and move both sides in.
	mergedRef, err := t.pool.Alloc()
	if err != nil {
		return false
	}
	merged := bucket.ViewAddr(t.pool.Addr(mergedRef))
	merged.Reset(ld - 1)
	move := func(src bucket.Bucket) {
		src.ForEach(func(k, v uint64) bool {
			merged.Insert(k, v)
			return true
		})
	}
	move(b)
	move(buddy)

	mLo := lo
	if buddyLo < lo {
		mLo = buddyLo
	}
	mHi := mLo + 2*span
	oldA := t.dir[idx]
	oldB := t.dir[buddyLo]
	for s := mLo; s < mHi; s++ {
		t.dir[s] = t.pool.Addr(mergedRef)
		t.refs[s] = mergedRef
	}
	if r, err := t.pool.RefOf(oldA); err == nil {
		t.pool.Free(r)
	}
	if r, err := t.pool.RefOf(oldB); err == nil {
		t.pool.Free(r)
	}
	t.buckets--
	t.version++
	t.Merges++
	if t.onEvent != nil {
		t.onEvent(MergeEvent{Version: t.version, Lo: mLo, Hi: mHi, Ref: mergedRef})
	}
	t.maybeHalve()
	return true
}

// prefixRangeAt computes the slot range sharing the bucket's ld-bit prefix
// from a slot index (rather than from a hash).
func prefixRangeAt(idx uint64, ld, gd uint) (lo, hi uint64) {
	span := uint64(1) << (gd - ld)
	lo = idx &^ (span - 1)
	return lo, lo + span
}

// maybeHalve halves the directory while no bucket uses the full global
// depth. Cheap check first: scan slot pairs only when the last merge made
// halving plausible.
func (t *Table) maybeHalve() {
	for t.gd > 0 {
		// Halving is legal iff every even/odd slot pair references the
		// same bucket, i.e. no bucket has local depth == gd.
		for i := 0; i < len(t.dir); i += 2 {
			if t.dir[i] != t.dir[i+1] {
				return
			}
		}
		newDir := make([]uintptr, len(t.dir)/2)
		newRefs := make([]pool.Ref, len(t.refs)/2)
		for i := range newDir {
			newDir[i] = t.dir[2*i]
			newRefs[i] = t.refs[2*i]
		}
		t.dir = newDir
		t.refs = newRefs
		t.gd--
		t.publishView()
		t.version++
		t.Halves++
		if t.onEvent != nil {
			t.onEvent(HalveEvent{Version: t.version, GlobalDepth: t.gd, Refs: t.Refs()})
		}
	}
}

// DeleteAndMerge removes key like Delete and, when merging is enabled via
// Config.MergeLoadFactor, coalesces underfull buckets and halves the
// directory when possible.
func (t *Table) DeleteAndMerge(key uint64) bool {
	idx := hashfn.DirIndex(hashfn.Hash(key), t.gd)
	b := bucket.ViewAddr(t.dir[idx])
	if !b.Delete(key) {
		return false
	}
	t.count--
	if t.mergeBelow > 0 && b.Count() <= t.mergeBelow {
		t.maybeMerge(idx)
	}
	return true
}
