// Package bitstream provides MSB-first bit readers and writers with the
// byte-stuffing convention of the JPEG entropy-coded segment: an 0xFF data
// byte is followed by a stuffed 0x00 on the wire, and any 0xFF followed by
// a non-zero byte terminates the segment (a marker).
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUnexpectedEOF is returned when the entropy-coded segment ends before
// the requested bits are available.
var ErrUnexpectedEOF = errors.New("bitstream: unexpected end of entropy data")

// ErrMarker is returned by Reader methods when a marker (0xFF followed by a
// non-zero, non-stuffing byte) interrupts the entropy-coded segment.
type ErrMarker struct {
	Marker byte // the marker code, e.g. 0xD9 for EOI
}

func (e ErrMarker) Error() string {
	return fmt.Sprintf("bitstream: hit marker 0xFF%02X inside entropy data", e.Marker)
}

// Reader reads bits MSB-first from a JPEG entropy-coded segment, removing
// byte stuffing. It keeps the position of the last consumed byte so callers
// can account for entropy-coded data size per region.
//
// The accumulator is refilled eagerly, up to 8 bytes at a time: a SWAR
// scan finds the next 0xFF so runs of stuffing-free bytes load as whole
// 64-bit words instead of one byte per conditional. A Huffman
// lookup-decode plus its appended magnitude bits (at most 16+16+11 bits
// between refills) always fits in the >= 56 bits a refill guarantees
// while input lasts.
type Reader struct {
	data   []byte
	pos    int    // next byte index in data
	acc    uint64 // bit accumulator, MSB-aligned in the low `bits` bits
	bits   uint   // number of valid bits in acc, including pad zeros
	pad    uint   // low-order synthetic zero bits appended past a marker
	marker byte   // pending marker code (0 if none)
}

// NewReader returns a Reader over the entropy-coded bytes data.
func NewReader(data []byte) *Reader {
	return &Reader{data: data}
}

// Reset re-initializes the reader over new data, retaining no state.
func (r *Reader) Reset(data []byte) {
	r.data = data
	r.pos = 0
	r.acc = 0
	r.bits = 0
	r.pad = 0
	r.marker = 0
}

// BytePos returns the number of input bytes consumed so far, including
// stuffed bytes. Bits buffered in the accumulator count as consumed.
func (r *Reader) BytePos() int { return r.pos }

// BitsBuffered returns the number of input bits currently buffered
// (synthetic zero padding past a marker excluded), so consumed bits =
// 8*BytePos - BitsBuffered exactly, up to stuffing.
func (r *Reader) BitsBuffered() uint { return r.bits - r.pad }

// hasFF reports whether any byte of v equals 0xFF (SWAR zero-byte scan of
// the complement).
func hasFF(v uint64) bool {
	x := ^v
	return (x-0x0101010101010101)&^x&0x8080808080808080 != 0
}

// refill tops the accumulator up toward 64 bits. It never pads: on a
// marker it records the code and stops with the 0xFF unconsumed; at end
// of input it simply stops. fill decides whether the shortfall is a
// marker (zero padding) or ErrUnexpectedEOF.
func (r *Reader) refill() {
	if r.marker != 0 {
		return
	}
	d, p := r.data, r.pos
	// Fast path: load stuffing-free 8-byte words whole.
	for r.bits <= 56 && p+8 <= len(d) {
		v := binary.BigEndian.Uint64(d[p:])
		if hasFF(v) {
			break
		}
		k := (64 - r.bits) >> 3 // whole bytes that fit, 1..8
		r.acc = r.acc<<(8*k) | v>>(64-8*k)
		r.bits += 8 * k
		p += int(k)
	}
	// Slow path: byte at a time with stuffing and marker classification.
	for r.bits <= 56 && p < len(d) {
		b := d[p]
		if b == 0xFF {
			if p+1 >= len(d) {
				// A trailing 0xFF cannot be classified; treat as end of
				// input (matching the byte-at-a-time reader).
				break
			}
			if d[p+1] != 0x00 {
				// Marker: remember it, leave the 0xFF unconsumed for the
				// caller's accounting.
				r.marker = d[p+1]
				break
			}
			p++ // stuffed byte
		}
		p++
		r.acc = r.acc<<8 | uint64(b)
		r.bits += 8
	}
	r.pos = p
}

// fillSlow ensures at least n bits are buffered, refilling eagerly and
// zero-padding past a marker (the spec's handling of truncated entropy
// data). Callers guard on r.bits >= n first so the common case inlines.
func (r *Reader) fillSlow(n uint) error {
	r.refill()
	if r.bits >= n {
		return nil
	}
	if r.marker == 0 {
		return ErrUnexpectedEOF
	}
	k := (n - r.bits + 7) &^ 7 // pad whole bytes of zeros
	r.acc <<= k
	r.bits += k
	r.pad += k
	return nil
}

// Peek returns the next n bits (1..32) without consuming them. Missing
// bits past a marker read as zero, matching JPEG decoder convention.
// The buffered-bits guard keeps the common case inlinable.
func (r *Reader) Peek(n uint) (uint32, error) {
	if r.bits >= n {
		return uint32(r.acc>>(r.bits-n)) & uint32(1<<n-1), nil
	}
	return r.peekSlow(n)
}

func (r *Reader) peekSlow(n uint) (uint32, error) {
	if err := r.fillSlow(n); err != nil {
		return 0, err
	}
	return uint32(r.acc>>(r.bits-n)) & uint32(1<<n-1), nil
}

// Consume discards n buffered bits. It must follow a successful Peek of at
// least n bits.
func (r *Reader) Consume(n uint) {
	r.bits -= n
	if r.pad > r.bits {
		r.pad = r.bits
	}
	r.acc &= 1<<r.bits - 1
}

// ReadBits reads and consumes n bits (0..32), MSB first.
func (r *Reader) ReadBits(n uint) (uint32, error) {
	if n == 0 {
		return 0, nil
	}
	v, err := r.Peek(n)
	if err != nil {
		return 0, err
	}
	r.Consume(n)
	return v, nil
}

// MustPeek returns the next n bits without consuming them, assuming a
// prior fill guaranteed availability (callers pair it with Bits()).
func (r *Reader) MustPeek(n uint) uint32 {
	return uint32(r.acc>>(r.bits-n)) & uint32(1<<n-1)
}

// Bits returns the number of bits currently buffered, including zero
// padding past a marker. The Huffman fast path uses it with Fill32 to
// decide when unchecked peeks are safe.
func (r *Reader) Bits() uint { return r.bits }

// Fill32 tries to buffer at least 32 bits (enough for one Huffman code
// plus its appended magnitude bits) and reports whether it succeeded.
// Unlike Peek it allocates no error on the truncated-input path.
func (r *Reader) Fill32() bool {
	if r.bits >= 32 {
		return true
	}
	return r.fillSlow(32) == nil
}

// Window checks the accumulator out into the caller's locals, for a loop
// that decodes many symbols between touches of the Reader: acc holds the
// bits buffered bits left-aligned (the next bit is bit 63, everything
// below the buffered bits is zero), so peeking n bits is acc>>(64-n) and
// consuming them is acc <<= n, bits -= n. ok is false once zero padding
// past a marker has been appended; such a reader is read through its
// methods only. The caller refills with Refill and RefillSlow, which keep
// the byte position in the Reader, and hands the window back with
// SetWindow before any other method is called.
func (r *Reader) Window() (acc uint64, bits uint, ok bool) {
	return r.acc << (64 - r.bits), r.bits, r.pad == 0
}

// SetWindow hands a window back after the caller consumed from it.
func (r *Reader) SetWindow(acc uint64, bits uint) {
	r.acc = acc >> (64 - bits)
	r.bits = bits
}

// Refill tops a window up exactly as the reader's own eager refill
// does, so byte positions match the method-driven path bit for bit, but
// covers only the case that inlines: eight stuffing-free bytes ahead.
// Otherwise the window comes back unchanged and RefillSlow finishes. It
// must only be called with bits < 32, and it sits just inside the
// compiler's inlining budget (go build -gcflags=-m: cost 78 of 80), which
// the probe loops depend on: keep it that small.
func (r *Reader) Refill(acc uint64, bits uint) (uint64, uint) {
	d := r.data[r.pos:]
	if len(d) < 8 {
		return acc, bits
	}
	v := binary.BigEndian.Uint64(d)
	if hasFF(v) {
		return acc, bits
	}
	free := 64 - bits // whole bytes of it are taken: 1..8 of them
	r.pos += int(free >> 3)
	return acc | v>>bits&(^uint64(0)<<(free&7)), bits + free&^7
}

// RefillSlow is the reader's full refill on a window: byte stuffing,
// marker detection, the last bytes of the segment. It never pads, so the
// window may come back short; the caller then falls back to the methods.
func (r *Reader) RefillSlow(acc uint64, bits uint) (uint64, uint) {
	r.SetWindow(acc, bits)
	r.refill()
	return r.acc << (64 - r.bits), r.bits
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint32, error) { return r.ReadBits(1) }

// Marker reports the marker code that interrupted the stream, or 0.
func (r *Reader) Marker() byte { return r.marker }

// AlignToByte discards buffered bits so the next read starts at a byte
// boundary (used before restart markers).
func (r *Reader) AlignToByte() {
	drop := r.bits % 8
	r.Consume(drop)
}

// SkipRestartMarker consumes an RSTn marker at the current (byte-aligned)
// position and resets marker state. Returns the marker code consumed.
func (r *Reader) SkipRestartMarker() (byte, error) {
	r.AlignToByte()
	// Drop whole buffered bytes; they belong before the marker. With the
	// eager refill these may include real look-ahead bytes only when the
	// stream is corrupt (a restart marker must directly follow the bits
	// consumed so far); pad bytes past the marker always drop here.
	for r.bits >= 8 {
		r.Consume(8)
	}
	if r.marker != 0 {
		m := r.marker
		if m < 0xD0 || m > 0xD7 {
			return 0, ErrMarker{Marker: m}
		}
		r.marker = 0
		r.pos += 2 // consume FF and marker byte
		return m, nil
	}
	if r.pos+1 >= len(r.data) || r.data[r.pos] != 0xFF {
		return 0, ErrUnexpectedEOF
	}
	m := r.data[r.pos+1]
	if m < 0xD0 || m > 0xD7 {
		return 0, ErrMarker{Marker: m}
	}
	r.pos += 2
	return m, nil
}

// Writer writes bits MSB-first, inserting JPEG byte stuffing after each
// 0xFF data byte. Bits gather in a 64-bit accumulator and leave it 32
// at a time: four bytes in one append when none of them is 0xFF, byte
// by byte with stuffing otherwise.
type Writer struct {
	buf  []byte
	acc  uint64 // the low `bits` bits are pending, oldest first
	bits uint   // < 32 between calls
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// NewWriterBuf returns an empty Writer that appends into buf's backing
// array (reset to length 0). The encoder seeds writers with pooled
// slabs so steady-state entropy emission stays allocation-flat; Flush
// returns the possibly-regrown buffer for the caller to recycle.
func NewWriterBuf(buf []byte) *Writer { return &Writer{buf: buf[:0]} }

// WriteBits appends the low n bits of v (n ≤ 32, so a Huffman code and
// its magnitude bits fit one call), MSB first.
func (w *Writer) WriteBits(v uint32, n uint) {
	w.acc = w.acc<<n | uint64(v&(1<<n-1))
	w.bits += n
	if w.bits >= 32 {
		w.bits -= 32
		w.put32(uint32(w.acc >> w.bits))
	}
}

// put32 appends four data bytes, stuffing a zero after any 0xFF.
func (w *Writer) put32(word uint32) {
	// The SWAR test for a 0xFF byte: a zero byte in ^word.
	if x := ^word; (x-0x01010101)&^x&0x80808080 == 0 {
		w.buf = binary.BigEndian.AppendUint32(w.buf, word)
		return
	}
	for sh := 24; sh >= 0; sh -= 8 {
		w.putByte(byte(word >> sh))
	}
}

func (w *Writer) putByte(b byte) {
	w.buf = append(w.buf, b)
	if b == 0xFF {
		w.buf = append(w.buf, 0x00)
	}
}

// flushByte pads the pending bits to a byte boundary with 1-bits (the
// JPEG convention) and appends every whole pending byte.
func (w *Writer) flushByte() {
	if pad := -w.bits & 7; pad > 0 {
		w.acc = w.acc<<pad | (1<<pad - 1)
		w.bits += pad
	}
	for w.bits > 0 {
		w.bits -= 8
		w.putByte(byte(w.acc >> w.bits))
	}
}

// Flush pads the final partial byte with 1-bits (JPEG convention) and
// returns the encoded segment. The Writer remains usable.
func (w *Writer) Flush() []byte {
	w.flushByte()
	return w.buf
}

// WriteRestartMarker pads the current byte with 1-bits and appends the
// RSTn marker (n in 0..7) unstuffed, as required between restart
// intervals.
func (w *Writer) WriteRestartMarker(n int) {
	w.flushByte()
	w.buf = append(w.buf, 0xFF, 0xD0+byte(n&7))
}

// Len returns the number of bytes emitted so far (excluding buffered
// bits, of which there may be up to 31).
func (w *Writer) Len() int { return len(w.buf) }

// BitLen returns the total number of payload bits written so far.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.bits) }

// Reset clears the writer for reuse.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.bits = 0
}
