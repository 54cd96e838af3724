//go:build !(amd64 || arm64) || purego

package simd

import "unsafe"

// Prefetch is a no-op on architectures without an assembly stub and under
// -tags purego; the pipelines stay correct without it, since a prefetch is
// architecturally invisible.
func Prefetch(unsafe.Pointer) {}

// PrefetchPair is a no-op here for the same reason.
func PrefetchPair(unsafe.Pointer) {}
