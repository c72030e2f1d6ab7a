//go:build !race

package casstore

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so heap-growth tests skip under it.
const raceEnabled = false
