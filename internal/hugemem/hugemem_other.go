//go:build !linux

package hugemem

func advisable() bool { return false }
func onAdvice() bool  { return false }
func advise([]byte)   {}
func noHuge([]byte)   {}
func dontNeed([]byte) {}
func collapse([]byte) {}
