package dramhitp

import (
	"fmt"
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/tabletest"
)

// TestStageBatchesThroughReadHandle drives the two-stage prefetch schedule's
// edge batches (tabletest.StageBatches: around half a window, around a window,
// wire-sized runs, a flush after each) through the reader's byte-lookup ring
// over bucket partitions, at the windows where the stage-two cursor clamps.
// The schedule itself — which entry is staged when — is pinned on the ring, in
// dramhit's TestStageTwoScheduleBytes (one region and three); what is checked
// here is that every lookup routed to a partition completes once, in order,
// with its own key's answer.
func TestStageBatchesThroughReadHandle(t *testing.T) {
	for _, window := range []int{1, 2, 16} {
		tb := New(Config{Slots: 1 << 12, Producers: 1, Consumers: 2, Layout: table.LayoutBucket, PrefetchWindow: window})
		w := tb.NewWriteHandle()
		bkey := func(i int) []byte { return []byte(fmt.Sprintf("stage-key-%06d", i%997)) }
		for i := 0; i < 997; i += 2 { // half of the keyspace present
			w.PutBytes(bkey(i), []byte("value"))
		}
		w.Close()
		r := tb.NewReadHandle()
		next := 0 // next byte completion expected
		r.OnGetBytesComplete(func(id uint64, value []byte, found bool) {
			if int(id) != next || found != (next%997%2 == 0) || (found && string(value) != "value") {
				t.Fatalf("window %d: byte completion %d = (%q, %v), expected id %d", window, id, value, found, next)
			}
			next++
		})
		nsub := 0
		for _, batch := range tabletest.StageBatches(window) {
			for i := 0; i < batch; i++ {
				r.SubmitGetBytes(uint64(nsub), bkey(nsub))
				nsub++
			}
			r.FlushGetBytes()
			if next != nsub || r.PendingGetBytes() != 0 {
				t.Fatalf("window %d, batch %d: %d submitted, %d byte completions", window, batch, nsub, next)
			}
		}
		tb.Close()
	}
}
