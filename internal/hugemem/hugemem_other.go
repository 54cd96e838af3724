//go:build !linux

package hugemem

func advisable() bool   { return false }
func advise([]uint64)   {}
func collapse([]uint64) {}
