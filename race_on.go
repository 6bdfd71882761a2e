//go:build race

package vmshortcut

// raceEnabled gates the seqlock read path: its whole point is reading
// the index without synchronization and discarding invalidated results,
// which is exactly what the race detector exists to flag. Under -race
// every GET takes the locked path, so the detector stays meaningful for
// everything else — and only plain builds exercise the seqlock.
const raceEnabled = true
