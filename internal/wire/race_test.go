//go:build race

package wire

// raceEnabled reports that the race detector is on. Its sync.Pool drops a
// quarter of the items put back, so an allocation count that passes
// through a pool is partly the detector's.
const raceEnabled = true
