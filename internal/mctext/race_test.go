//go:build race

package mctext

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation allocates, so zero-alloc pins only hold uninstrumented.
const raceEnabled = true
