// Package readbuf is the read buffer the protocol readers (internal/resp,
// internal/mctext) parse in place: the connection reads straight into it,
// a parser scans each frame where it lies, and the slices it returns alias
// the buffer until Release.
//
// The bytes of frames consumed since the last Release are held: they cannot
// move. When a frame outgrows the buffer's free tail while bytes are held,
// only the frame's unconsumed bytes move, to a recycled spare, and the old
// buffer stays alive until Release returns it to the spares, so a relocation
// in steady state allocates nothing. When nothing is held, the unconsumed
// bytes slide to the front before each read, as bufio does, so a burst that
// fits the buffer arrives in one read. The buffer grows only when it is full
// and the frame already fills half of it, to at most twice its size and no
// more than the frame needs: growth follows the bytes that did arrive, and a
// length header is a claim, never an allocation.
package readbuf

import "io"

// Size is a new buffer's capacity: the longest request line (resp.MaxInline,
// mctext.MaxLine) fits, and so does a pipelined burst of small requests,
// which then arrives in one read. It is not a limit.
const Size = 64 << 10

// Buffer is one connection's read buffer. Its zero value is not usable; make
// one with New.
type Buffer struct {
	src  io.Reader
	buf  []byte
	r, w int // buf[r:w] has been read but not consumed
	mark int // buf[mark:r] was consumed since Release and is held
	used int // bytes consumed since Release, held buffers included
	size int // capacity of buf, held and free
	held [][]byte
	free [][]byte // spares for the next relocation, recycled by Release
}

// New returns a buffer of size bytes that reads from src. The protocol
// readers use Size; a smaller one lets a test cross the buffer's end with
// short inputs.
func New(src io.Reader, size int) Buffer {
	return Buffer{src: src, buf: make([]byte, size), size: size}
}

// Bytes returns the unconsumed bytes. The slice is valid until the next Fill;
// subslices of a prefix passed to Consume stay valid until Release.
func (b *Buffer) Bytes() []byte { return b.buf[b.r:b.w] }

// Consume marks the next n unconsumed bytes as one parsed frame.
func (b *Buffer) Consume(n int) { b.r += n; b.used += n }

// Buffered reports whether any unconsumed byte is buffered.
func (b *Buffer) Buffered() bool { return b.w > b.r }

// Used reports how many bytes were consumed since Release.
func (b *Buffer) Used() int { return b.used }

// Cap reports the capacity held: the current buffer, held ones and spares.
func (b *Buffer) Cap() int { return b.size }

// Release invalidates the slices of consumed frames and recycles their buffers.
func (b *Buffer) Release() {
	b.free = append(b.free, b.held...)
	clear(b.held)
	b.held = b.held[:0]
	b.mark, b.used = b.r, 0
}

// Fill reads until at least need bytes are unconsumed. On a short read it
// returns the read's error, io.EOF only when nothing is buffered: an end in
// the middle of a frame is io.ErrUnexpectedEOF.
func (b *Buffer) Fill(need int) error {
	if b.w-b.r >= need {
		return nil
	}
	return b.fill(need)
}

func (b *Buffer) fill(need int) error {
	for empty := 0; ; {
		if b.mark == b.r && b.r > 0 {
			b.w = copy(b.buf, b.buf[b.r:b.w])
			b.r, b.mark = 0, 0
		}
		if b.w == len(b.buf) {
			b.move(need)
		}
		n, err := b.src.Read(b.buf[b.w:])
		b.w += n
		if b.w-b.r >= need {
			return nil
		}
		if err == io.EOF && b.w > b.r {
			return io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
		if n > 0 {
			empty = 0
		} else if empty++; empty == 100 {
			return io.ErrNoProgress
		}
	}
}

// move gives the unconsumed bytes a buffer with free space: a spare of the
// same size or, once they fill half of it, one grown toward need by 2x at most.
// The old buffer is held if consumed frames alias it and dropped otherwise.
func (b *Buffer) move(need int) {
	n := len(b.buf)
	if 2*(b.w-b.r) > n {
		n = max(n, min(2*n, need))
	}
	var nb []byte
	for len(b.free) > 0 && nb == nil {
		last := len(b.free) - 1
		if nb = b.free[last]; len(nb) < n {
			b.size -= len(nb)
			nb = nil
		}
		b.free[last] = nil
		b.free = b.free[:last]
	}
	if nb == nil {
		nb = make([]byte, n)
		b.size += n
	}
	if b.mark < b.r {
		b.held = append(b.held, b.buf)
	} else {
		b.size -= len(b.buf)
	}
	b.w = copy(nb, b.buf[b.r:b.w])
	b.buf, b.r, b.mark = nb, 0, 0
}

// TrimCR strips the CR of a CRLF line end (a bare LF is tolerated).
func TrimCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// BlockEnd checks the line end that must follow a length-delimited block
// ending at p[end]: CRLF, or a bare LF. It returns the offset past it, or
// need > 0 while it is not all in p; both are 0 when something else follows.
func BlockEnd(p []byte, end int) (next, need int) {
	switch {
	case end >= len(p):
		return 0, end + 1
	case p[end] == '\n':
		return end + 1, 0
	case p[end] != '\r':
		return 0, 0
	case end+1 == len(p):
		return 0, end + 2
	case p[end+1] == '\n':
		return end + 2, 0
	}
	return 0, 0
}
