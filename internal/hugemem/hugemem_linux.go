package hugemem

import (
	"bytes"
	"os"
	"syscall"
)

// madvCollapse is MADV_COLLAPSE (Linux 6.1), which package syscall predates.
const madvCollapse = 25

// advisable reports whether the operator allows transparent huge pages at
// all: [never] in sysfs is the one switch, and it is theirs.
func advisable() bool {
	b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	return err == nil && !bytes.Contains(b, []byte("[never]"))
}

// onAdvice reports whether the kernel grants huge pages on advice only
// ([madvise]): the one setting under which this package's advice decides
// which memory gets them.
func onAdvice() bool {
	b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	return err == nil && bytes.Contains(b, []byte("[madvise]"))
}

// advise marks s — whole huge pages, all zero — as wanting huge pages on
// first touch. The flag stays on the address range after s is garbage.
func advise(s []byte) {
	// Whatever the runtime's zeroing faulted in is 4 KiB pages of zeros.
	// Dropping them reads back as the same zeros and lets the first touch
	// fault huge pages from both CPUs; left in place they would all go
	// through collapse, which copies and holds the address-space lock.
	dontNeed(s)
	_ = syscall.Madvise(s, syscall.MADV_HUGEPAGE) // refusal leaves 4 KiB pages, as before
}

// noHuge marks s — whole base pages, all zero — as wanting base pages, and
// drops the pages already faulted in, so the next touch faults 4 KiB pages.
func noHuge(s []byte) {
	_ = syscall.Madvise(s, syscall.MADV_NOHUGEPAGE)
	dontNeed(s)
}

// dontNeed drops s's pages, whole base pages of zeros nothing will read
// before writing: they fault back in as zeros.
func dontNeed(s []byte) {
	_ = syscall.Madvise(s, syscall.MADV_DONTNEED)
}

// collapse replaces whatever 4 KiB pages still back s with huge pages,
// copying their contents: the net under a first touch whose fault fell back
// to small pages, and a page-table scan when it did not. Kernels before 6.1
// answer EINVAL and keep what the faults gave.
func collapse(s []byte) {
	_ = syscall.Madvise(s, madvCollapse) // best effort by contract
}
