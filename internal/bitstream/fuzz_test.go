package bitstream

import (
	"bytes"
	"errors"
	"testing"
)

// refReader is the byte-at-a-time reference reader (the pre-64-bit
// implementation): the differential oracle for the eager SWAR refill.
// It must return exactly the same bit values and error classes.
type refReader struct {
	data   []byte
	pos    int
	acc    uint64
	bits   uint
	marker byte
}

func (r *refReader) fill(n uint) error {
	for r.bits < n {
		if r.marker != 0 {
			r.acc <<= 8
			r.bits += 8
			continue
		}
		if r.pos >= len(r.data) {
			return ErrUnexpectedEOF
		}
		b := r.data[r.pos]
		r.pos++
		if b == 0xFF {
			if r.pos >= len(r.data) {
				return ErrUnexpectedEOF
			}
			nxt := r.data[r.pos]
			if nxt == 0x00 {
				r.pos++
			} else {
				r.marker = nxt
				r.pos--
				r.acc <<= 8
				r.bits += 8
				continue
			}
		}
		r.acc = r.acc<<8 | uint64(b)
		r.bits += 8
	}
	return nil
}

func (r *refReader) readBits(n uint) (uint32, error) {
	if n == 0 {
		return 0, nil
	}
	if err := r.fill(n); err != nil {
		return 0, err
	}
	v := uint32(r.acc>>(r.bits-n)) & (1<<n - 1)
	r.bits -= n
	r.acc &= 1<<r.bits - 1
	return v, nil
}

// FuzzReaderMatchesReference drives both readers with the same read-size
// schedule (derived from the input) and requires identical values,
// identical error classes and identical marker codes.
func FuzzReaderMatchesReference(f *testing.F) {
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF1, 0x10, 0x42}, []byte{8, 4, 1})
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x00, 0x01, 0x02}, []byte{16, 3})
	f.Add([]byte{0xAA, 0xFF, 0xD9, 0x55}, []byte{7, 9, 2})           // EOI marker mid-stream
	f.Add([]byte{0xFF}, []byte{1})                                   // lone trailing 0xFF
	f.Add(bytes.Repeat([]byte{0xFF, 0x00}, 20), []byte{24, 24, 24})  // all stuffing
	f.Add(bytes.Repeat([]byte{0x5C}, 64), []byte{32, 1, 31, 17, 23}) // stuffing-free fast path
	f.Fuzz(func(t *testing.T, data []byte, sizes []byte) {
		if len(sizes) == 0 || len(sizes) > 256 {
			return
		}
		fast := NewReader(data)
		ref := &refReader{data: data}
		for step := 0; step < 512; step++ {
			n := uint(sizes[step%len(sizes)]) % 33
			gv, gerr := fast.ReadBits(n)
			wv, werr := ref.readBits(n)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("step %d n=%d: err %v vs reference %v", step, n, gerr, werr)
			}
			if gerr != nil {
				if !errors.Is(gerr, ErrUnexpectedEOF) || !errors.Is(werr, ErrUnexpectedEOF) {
					t.Fatalf("step %d: unexpected error class %v vs %v", step, gerr, werr)
				}
				return
			}
			if gv != wv {
				t.Fatalf("step %d n=%d: value %#x vs reference %#x", step, n, gv, wv)
			}
			// The eager reader may discover a marker earlier than the lazy
			// reference, but once the reference has seen it they must agree.
			if ref.marker != 0 && fast.Marker() != ref.marker {
				t.Fatalf("step %d: marker %#x vs reference %#x", step, fast.Marker(), ref.marker)
			}
		}
	})
}

// FuzzWriterReaderRoundTrip writes the input as bit chunks and reads it
// back through the stuffing-aware reader.
func FuzzWriterReaderRoundTrip(f *testing.F) {
	f.Add([]byte{0xFF, 0x01, 0x80, 0x7F})
	f.Add([]byte{0x00})
	f.Add(bytes.Repeat([]byte{0xFF}, 9))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 || len(payload) > 1024 {
			return
		}
		w := NewWriter()
		for _, b := range payload {
			w.WriteBits(uint32(b), 8)
		}
		r := NewReader(w.Flush())
		for i, want := range payload {
			got, err := r.ReadBits(8)
			if err != nil {
				t.Fatalf("byte %d: %v", i, err)
			}
			if byte(got) != want {
				t.Fatalf("byte %d: %#x != %#x", i, got, want)
			}
		}
	})
}

// refWriter is a bit-at-a-time reference writer: the differential
// oracle for Writer's 64-bit accumulator, four-byte stores and
// stuffing.
type refWriter struct {
	buf  []byte
	acc  uint32
	bits uint
}

func (w *refWriter) writeBits(v uint32, n uint) {
	for ; n > 0; n-- {
		w.acc = w.acc<<1 | v>>(n-1)&1
		if w.bits++; w.bits == 8 {
			w.buf = append(w.buf, byte(w.acc))
			if byte(w.acc) == 0xFF {
				w.buf = append(w.buf, 0x00)
			}
			w.acc, w.bits = 0, 0
		}
	}
}

func (w *refWriter) pad() {
	if w.bits > 0 {
		w.writeBits(0xFF, 8-w.bits)
	}
}

// FuzzWriterMatchesReference drives Writer and the reference writer
// through one schedule of writes of 0..32 bits, restart markers and
// flushes; the bytes must agree at every flush.
func FuzzWriterMatchesReference(f *testing.F) {
	f.Add([]byte{8, 0xFF, 0xFF, 0xFF, 0xFF, 27, 1, 2, 3, 4, 0x80 | 3, 5})
	f.Add([]byte{32, 0xFF, 0xFF, 0xFF, 0xFF, 32, 0xFE, 0xFF, 0xFF, 0x7F, 0xC0})
	f.Add(bytes.Repeat([]byte{17, 0xFF, 0x00, 0xFF, 0x01}, 20))
	f.Fuzz(func(t *testing.T, prog []byte) {
		w := NewWriter()
		ref := &refWriter{}
		for len(prog) > 0 {
			op := prog[0]
			prog = prog[1:]
			switch {
			case op == 0xC0:
				ref.pad()
				if got := w.Flush(); !bytes.Equal(got, ref.buf) {
					t.Fatalf("flush: % x, reference % x", got, ref.buf)
				}
			case op&0x80 != 0:
				w.WriteRestartMarker(int(op))
				ref.pad()
				ref.buf = append(ref.buf, 0xFF, 0xD0+op&7)
			default:
				n := uint(op) % 33
				var v uint32
				for i := 0; i < 4 && len(prog) > 0; i++ {
					v = v<<8 | uint32(prog[0])
					prog = prog[1:]
				}
				w.WriteBits(v, n)
				ref.writeBits(v, n)
			}
		}
		ref.pad()
		if got := w.Flush(); !bytes.Equal(got, ref.buf) {
			t.Fatalf("final flush: % x, reference % x", got, ref.buf)
		}
	})
}

// FuzzWindowMatchesMethods reads one stream twice with the same size
// schedule (sizes of 1..31 bits, one Huffman code plus its magnitude):
// through Fill32 + ReadBits, and through a checked-out window that is
// refilled below 32 bits and handed back after every read, falling back
// to the methods once the segment cannot supply 32 bits. Values, byte
// positions, buffered-bit counts and marker codes must agree after every
// step: the entropy decoder's probe loops rest on exactly this.
func FuzzWindowMatchesMethods(f *testing.F) {
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF1, 0x10, 0x42, 0x77, 0x01}, []byte{8, 4, 1})
	f.Add(append(bytes.Repeat([]byte{0x5C}, 40), 0xFF, 0x00, 0x13, 0xFF, 0xD3, 0x44, 0x55), []byte{31, 16, 3})
	f.Add(bytes.Repeat([]byte{0xFF, 0x00, 0x21}, 30), []byte{24, 7, 19})
	f.Add(append(bytes.Repeat([]byte{0xA7}, 21), 0xFF), []byte{9, 15, 2, 30}) // trailing 0xFF
	f.Add(append(bytes.Repeat([]byte{0x3E}, 70), 0xFF, 0xD9), []byte{11, 5})  // ends at EOI
	f.Fuzz(func(t *testing.T, data []byte, sizes []byte) {
		if len(sizes) == 0 || len(sizes) > 256 {
			return
		}
		win, ref := NewReader(data), NewReader(data)
		windowed := true
		for step := 0; step < 1024; step++ {
			n := uint(sizes[step%len(sizes)])%31 + 1
			ref.Fill32()
			wv, werr := ref.ReadBits(n)

			var gv uint32
			var gerr error
			acc, bits, ok := win.Window()
			if windowed && ok && bits < 32 {
				if acc, bits = win.Refill(acc, bits); bits < 32 {
					acc, bits = win.RefillSlow(acc, bits)
				}
			}
			if windowed = windowed && ok && bits >= 32; windowed {
				gv = uint32(acc >> (64 - n))
				win.SetWindow(acc<<n, bits-n)
			} else {
				win.SetWindow(acc, bits)
				win.Fill32()
				gv, gerr = win.ReadBits(n)
			}

			if (gerr == nil) != (werr == nil) || gv != wv {
				t.Fatalf("step %d n=%d: %#x, %v; methods %#x, %v", step, n, gv, gerr, wv, werr)
			}
			if win.BytePos() != ref.BytePos() || win.BitsBuffered() != ref.BitsBuffered() || win.Marker() != ref.Marker() {
				t.Fatalf("step %d n=%d: pos %d buffered %d marker %#x; methods pos %d buffered %d marker %#x", step, n,
					win.BytePos(), win.BitsBuffered(), win.Marker(), ref.BytePos(), ref.BitsBuffered(), ref.Marker())
			}
			if gerr != nil {
				return
			}
		}
	})
}
