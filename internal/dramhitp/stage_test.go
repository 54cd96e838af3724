package dramhitp

import (
	"fmt"
	"testing"

	"dramhit/internal/dramhit"
	"dramhit/internal/table"
	"dramhit/internal/tabletest"
)

// TestStageBatchesThroughReadHandle drives the two-stage prefetch schedule's
// edge batches (tabletest.StageBatches: around half a window, around a window,
// wire-sized runs, a flush after each) through a byte-table handle's byte
// ring over bucket partitions, at the windows where the stage-two cursor
// clamps. The schedule itself — which entry is staged when — is pinned on the
// ring, in dramhit's TestStageTwoScheduleBytes (one region and three); what is
// checked here is that every lookup routed to a partition completes once, in
// order, with its own key's answer.
func TestStageBatchesThroughReadHandle(t *testing.T) {
	for _, window := range []int{1, 2, 16} {
		tb := NewBytes(BytesConfig{Slots: 1 << 12, Partitions: 2, PrefetchWindow: window})
		w := tb.NewHandle()
		bkey := func(i int) []byte { return []byte(fmt.Sprintf("stage-key-%06d", i%997)) }
		for i := 0; i < 997; i += 2 { // half of the keyspace present
			w.PutBytes(bkey(i), []byte("value"))
		}
		r := tb.NewHandle()
		next := 0 // next byte completion expected
		r.OnByteComplete(func(c dramhit.ByteCompletion) {
			if int(c.ID) != next || c.Found != (next%997%2 == 0) || (c.Found && string(c.Value) != "value") {
				t.Fatalf("window %d: byte completion %d = (%q, %v), expected id %d", window, c.ID, c.Value, c.Found, next)
			}
			next++
		})
		nsub := 0
		for _, batch := range tabletest.StageBatches(window) {
			for i := 0; i < batch; i++ {
				r.SubmitBytes(table.Get, uint64(nsub), bkey(nsub), nil)
				nsub++
			}
			r.FlushBytes()
			if next != nsub || r.PendingBytes() != 0 {
				t.Fatalf("window %d, batch %d: %d submitted, %d byte completions", window, batch, nsub, next)
			}
		}
	}
}
