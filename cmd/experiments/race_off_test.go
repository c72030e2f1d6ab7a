//go:build !race

package main

// raceEnabled reports whether the race detector is compiled in; it
// slows the full batch about fivefold without changing its bytes, so the
// digest test skips under it.
const raceEnabled = false
