package tabletest

import "testing"

// The two-stage prefetch schedule (DESIGN.md §3.1.8), stated once for the
// stage-two tests of dramhit and dramhitp: positions are ring positions, head
// counts the entries pushed so far and tail the entries drained.

// StageBatches is the batch-size schedule the stage-two tests run at a given
// window: the sizes around the half-window and window edges, then runs of
// back-to-back wire-sized batches (8: shorter than half the default window;
// 32: twice it), each followed by a flush.
func StageBatches(window int) []int {
	return []int{1, window / 2, window/2 + 1, window, 2*window + 3, 8, 8, 8, 32, 32, 32}
}

// WantStaged is the cursor's position at the completion of the entry at
// position id: every push has staged what had max(window/2, 1) later
// submissions behind it, and id's own drain staged everything within window/2
// of it, clamped to the head.
func WantStaged(id, head, window int) int {
	half := window / 2
	return max(head-max(half, 1), min(id+half+1, head))
}

// CheckStageTiming asserts, from inside a stage-two hook, that stage two for
// position pos runs when the rule says and not otherwise: for an entry still
// in flight (so before its drain), never with more than max(window/2, 1) later
// submissions already behind it (the submit-side trigger would be missing:
// after a flush the first half-window would wait for the first drain), and
// never before one of the two triggers holds.
func CheckStageTiming(t *testing.T, pos, head, tail, window int) {
	t.Helper()
	half := window / 2
	behind := head - 1 - pos
	if pos < tail || pos >= head {
		t.Fatalf("window %d: stage two for position %d outside the ring [%d,%d)", window, pos, tail, head)
	}
	if behind > max(half, 1) {
		t.Fatalf("window %d: position %d staged late, %d submissions behind it (ring [%d,%d))", window, pos, behind, tail, head)
	}
	if behind < max(half, 1) && pos > tail+half {
		t.Fatalf("window %d: position %d staged early, %d behind it and %d from the tail", window, pos, behind, pos-tail)
	}
}
