// Package sceh implements Shortcut-EH (paper §4.1): extendible hashing
// whose directory is additionally expressed as a shortcut in the page
// table of the OS.
//
// # The shortcut mechanism
//
// A traditional EH lookup resolves two indirections: directory slot →
// bucket pointer → bucket page. The shortcut collapses the first one into
// the MMU. The directory is mirrored as a contiguous virtual area with one
// page per slot, and each slot's virtual page is rewired (mmap MAP_FIXED
// over the pool's memfd) onto the physical page of its bucket. Reading
// shortcutBase + slot*pageSize then IS the bucket access — the page-table
// walk the CPU performs anyway replaces the pointer chase, and the TLB
// caches it.
//
// # Asynchronous maintenance
//
// The traditional pointer directory stays authoritative: every
// directory-modifying operation is applied to it synchronously. A separate
// mapper thread replays those modifications into the shortcut directory
// asynchronously, driven by a concurrent lock-free FIFO queue of
// maintenance requests:
//
//   - a bucket split enqueues an update request (remap the two affected
//     slot ranges onto the two new bucket pages);
//   - a directory doubling enqueues a create request (destroy the shortcut
//     and build a new one from a snapshot of all slot refs) — pending
//     update requests are superseded by it.
//
// Both directories carry version numbers. The shortcut's version advances
// only after the page-table population of the replayed request completes,
// so an in-sync shortcut never takes a page fault. Lookups route through
// the shortcut only when (a) the versions match and (b) the average fan-in
// is at most FanInThreshold (paper §3.2: high fan-in thrashes the TLB).
//
// # Concurrency
//
// A Table is single-writer, matching the paper. The facade's
// WithConcurrency lifts that to one writer at a time with parallel
// readers, with lifecycle handling on top. To scale writers
// across cores, the facade's WithShards hash-partitions the keyspace over
// several independent Tables (each with its own mapper thread and lock
// stripe) instead of sharing one lock.
package sceh
