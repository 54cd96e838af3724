//go:build (amd64 || arm64) && !purego

package simd

import "unsafe"

// Prefetch asks the memory system to pull the cache line containing p into
// every cache level (PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64) and
// returns without waiting for it. The instruction is a hint: it never
// faults, whatever p holds — nil, a one-past-the-end address, an unmapped
// page — and it changes no architectural state, so callers need no bounds
// or liveness argument beyond keeping p a valid Go pointer value (nil, or
// into or one past an allocation). It retires at once, which is what lets a
// window of them keep that many DRAM misses in flight (paper §3.1).
//
//go:noescape
func Prefetch(p unsafe.Pointer)

// PrefetchPair is Prefetch of the line containing p and of the line 64 bytes
// above it, in one call: the flat probe's visit unit, a line and its
// successor. The second address is formed inside the stub, so it may run past
// the end of p's allocation (the last line's successor) without ever being a
// Go pointer; like every prefetch it cannot fault.
//
//go:noescape
func PrefetchPair(p unsafe.Pointer)
