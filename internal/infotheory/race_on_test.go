//go:build race

package infotheory

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates and sync.Pool drops items under it, so
// allocation-count tests skip.
const raceEnabled = true
