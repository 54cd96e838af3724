package dramhitp

import (
	"fmt"
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/tabletest"
)

// TestStageBatchesThroughReadHandle drives the two-stage prefetch schedule's
// edge batches (tabletest.StageBatches: around half a window, around a window,
// wire-sized runs, a flush after each) through both of the reader's rings over
// bucket partitions, at the windows where the stage-two cursor clamps. The
// schedule itself — which entry is staged when — is pinned on the ring, in
// dramhit's TestStageTwoSchedule{Bytes,Uint64} (one region and three); what
// is checked here is that every lookup routed to a partition completes once,
// in order on the byte ring, with its own key's answer.
func TestStageBatchesThroughReadHandle(t *testing.T) {
	for _, window := range []int{1, 2, 16} {
		tb := New(Config{Slots: 1 << 12, Producers: 1, Consumers: 2, Layout: table.LayoutBucket, PrefetchWindow: window})
		w := tb.NewWriteHandle()
		bkey := func(i int) []byte { return []byte(fmt.Sprintf("stage-key-%06d", i%997)) }
		for i := 0; i < 997; i += 2 { // half of either keyspace present
			w.PutBytes(bkey(i), []byte("value"))
			var kb, vb [8]byte
			putLE(kb[:], uint64(i)+1)
			putLE(vb[:], uint64(i)*3)
			w.PutBytes(kb[:], vb[:])
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
		resps := make([]table.Response, 128)
		nsub, answered := 0, 0
		check := func(rs []table.Response) {
			for _, rs := range rs {
				i := int(rs.ID) % 997
				if rs.Found != (i%2 == 0) || (rs.Found && rs.Value != uint64(i)*3) {
					t.Fatalf("window %d: Get %d = (%d, %v)", window, rs.ID, rs.Value, rs.Found)
				}
				answered++
			}
		}
		for _, batch := range tabletest.StageBatches(window) {
			reqs := make([]table.Request, batch)
			for i := range reqs {
				r.SubmitGetBytes(uint64(nsub), bkey(nsub))
				reqs[i] = table.Request{Op: table.Get, Key: uint64(nsub%997) + 1, ID: uint64(nsub)}
				nsub++
			}
			r.FlushGetBytes()
			nreq, nresp := r.Submit(reqs, resps)
			check(resps[:nresp])
			n, done := r.Flush(resps)
			check(resps[:n])
			if nreq != batch || !done || next != nsub || answered != nsub || r.PendingGetBytes() != 0 {
				t.Fatalf("window %d, batch %d: %d submitted, %d byte completions, %d responses, drained %v",
					window, batch, nsub, next, answered, done)
			}
		}
		tb.Close()
	}
}
