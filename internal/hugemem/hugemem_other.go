//go:build !linux

package hugemem

func advisable() bool { return false }
func advise([]byte)   {}
func dontNeed([]byte) {}
func collapse([]byte) {}
