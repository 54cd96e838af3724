package readbuf

import (
	"io"
	"math/rand"
	"testing"
)

// stuckReader returns no bytes and no error, for ever.
type stuckReader struct{ reads int }

func (s *stuckReader) Read([]byte) (int, error) { s.reads++; return 0, nil }

// TestFillGivesUpWithoutProgress: a reader that keeps returning nothing makes
// Fill fail with io.ErrNoProgress after a bounded number of reads, as bufio
// does, instead of spinning.
func TestFillGivesUpWithoutProgress(t *testing.T) {
	src := &stuckReader{}
	b := New(src, Size)
	if err := b.Fill(1); err != io.ErrNoProgress {
		t.Fatalf("Fill = %v, want io.ErrNoProgress", err)
	}
	if src.reads != 100 {
		t.Fatalf("Fill gave up after %d reads, want 100", src.reads)
	}
}

// endless returns up to max bytes per Read, for ever.
type endless struct {
	rng *rand.Rand
	max int
}

func (e endless) Read(p []byte) (int, error) { return min(len(p), 1+e.rng.Intn(e.max)), nil }

// TestGrowthStopsAtNeed: a frame larger than the buffer grows it by doubling
// while bytes arrive, and the last step takes only what the frame needs, so
// the buffer ends at the frame's size and not at the next power of two.
func TestGrowthStopsAtNeed(t *testing.T) {
	b := New(endless{rand.New(rand.NewSource(1)), 1 << 20}, Size)
	need := 5*Size + 3
	if err := b.Fill(need); err != nil {
		t.Fatal(err)
	}
	if got := b.Cap(); got != need {
		t.Fatalf("a %d-byte frame left %d bytes of buffers", need, got)
	}
}

// TestCapCountsEveryBuffer: after any mix of fills, consumes and releases,
// Cap is the size of the current buffer, the held ones and the spares.
func TestCapCountsEveryBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := New(endless{rng, 3 * Size}, Size)
	for i := 0; i < 2000; i++ {
		if rng.Intn(4) == 0 {
			b.Release()
		} else {
			need := 1 + rng.Intn(Size)
			if rng.Intn(16) == 0 {
				need = 1 + rng.Intn(6*Size)
			}
			if err := b.Fill(need); err != nil {
				t.Fatal(err)
			}
			b.Consume(rng.Intn(need + 1))
		}
		n := len(b.buf)
		for _, h := range b.held {
			n += len(h)
		}
		for _, f := range b.free {
			n += len(f)
		}
		if got := b.Cap(); got != n {
			t.Fatalf("step %d: Cap = %d, buffers hold %d", i, got, n)
		}
	}
}
