package arena

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	"dramhit/internal/hugemem"
)

// TestFirstSegmentsStayOffHugePages opens 1,024 writers that append one small
// record each, as 1,024 idle connections of the server do, and requires the
// process's AnonHugePages not to move by more than one huge page: a writer's
// first segment is a plain make, so it costs the 4 KiB pages it touches.
func TestFirstSegmentsStayOffHugePages(t *testing.T) {
	if b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled"); err != nil || bytes.Contains(b, []byte("[always]")) {
		t.Skip("transparent huge pages are [always] or unknown: a plain make may be huge-backed too")
	}
	debug.FreeOSMemory()
	_, before, ok := hugemem.Usage()
	if !ok {
		t.Skip("no /proc/self/smaps_rollup")
	}
	a := New()
	ws := make([]*Writer, 1024)
	for i := range ws {
		ws[i] = a.NewWriter()
		ws[i].Append([]byte("key"), []byte("value"))
	}
	_, after, _ := hugemem.Usage()
	if d := int64(after) - int64(before); d > 2<<20 || d < -2<<20 {
		t.Fatalf("AnonHugePages moved by %d KiB across 1,024 one-record writers", d>>10)
	}
	if a.HugeBytes() != 0 || a.slab != nil {
		t.Fatalf("first segments came from a slab (%d huge bytes)", a.HugeBytes())
	}
	runtime.KeepAlive(ws)
}
