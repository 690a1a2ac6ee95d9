// Package huffman implements JPEG baseline Huffman coding: canonical code
// construction from BITS/HUFFVAL (ITU-T T.81 Annex C), encoding, and a fast
// two-level lookup decoder.
package huffman

import (
	"errors"
	"fmt"

	"hetjpeg/internal/bitstream"
)

// MaxCodeLength is the longest Huffman code permitted by JPEG baseline.
const MaxCodeLength = 16

// lookupBits is the width of the first-level decode table. Codes no longer
// than lookupBits decode with a single peek; longer codes fall back to the
// canonical MINCODE/MAXCODE walk.
const lookupBits = 9

// ProbeBits is the index width of the one-probe LUT (Table.Probes). It
// is sized for the entropy stage's inner loops: wide enough that the
// common code+magnitude pairs resolve in one load, small enough that a
// scan's tables stay resident in L1 (4 KB each).
const ProbeBits = 10

// Probe is one entry of a Table's one-probe LUT, indexed by the next
// ProbeBits bits of the stream. It reads the symbol as JPEG's RRRRSSSS
// (run, magnitude category) and resolves as much of it as the index
// holds:
//
//	bits 0..4   Len: bits to consume. 0 means no code this short starts
//	            here; Table.Decode handles the symbol.
//	bits 5..8   Run: the symbol's high nibble.
//	bits 9..12  Extra: magnitude bits still to read after Len; 0 when the
//	            category is 0 or the magnitude sat inside the index.
//	bit 13      ZeroSize: the category is 0 (EOB, ZRL, an EOB run).
//	bits 16..31 Value: the EXTENDed magnitude when it sat inside the
//	            index (Len then covers code and magnitude), else 0.
type Probe uint32

const probeZeroSize Probe = 1 << 13

// Len returns the number of bits the entry consumes (0: use Decode).
func (p Probe) Len() uint { return uint(p & 31) }

// Run returns the symbol's run nibble.
func (p Probe) Run() int { return int(p>>5) & 15 }

// Extra returns the magnitude bits still to be read after Len.
func (p Probe) Extra() uint { return uint(p>>9) & 15 }

// ZeroSize reports a symbol whose magnitude category is 0.
func (p Probe) ZeroSize() bool { return p&probeZeroSize != 0 }

// Value returns the EXTENDed magnitude resolved inside the index.
func (p Probe) Value() int32 { return int32(p) >> 16 }

// Extend implements the EXTEND procedure of T.81 F.2.2.1: map the t
// magnitude bits v of category t (1..15) to the signed coefficient.
func Extend(v uint32, t uint) int32 {
	// A clear top bit marks a negative value: add 1 - 2^t.
	return int32(v) + (int32(v>>(t-1))-1)&(1-int32(1)<<t)
}

// Spec holds a table in the JPEG interchange format: Counts[i] is the
// number of codes of length i+1, and Values lists the symbols in order of
// increasing code length.
type Spec struct {
	Counts [MaxCodeLength]byte
	Values []byte
}

// Validate checks the structural constraints of a table spec.
func (s *Spec) Validate() error {
	total := 0
	code := 0
	for i, c := range s.Counts {
		code <<= 1
		total += int(c)
		code += int(c)
		if code > 1<<(i+1) {
			return fmt.Errorf("huffman: over-subscribed code lengths at length %d", i+1)
		}
	}
	if total != len(s.Values) {
		return fmt.Errorf("huffman: counts sum %d != %d values", total, len(s.Values))
	}
	if total == 0 {
		return errors.New("huffman: empty table")
	}
	if total > 256 {
		return fmt.Errorf("huffman: %d symbols exceeds 256", total)
	}
	return nil
}

// Table is a compiled Huffman table supporting both encode and decode.
type Table struct {
	spec Spec

	// Encoder side: code and size per symbol.
	codes [256]uint32
	sizes [256]uint8

	// Decoder side: canonical ranges plus an accelerated lookup table.
	minCode  [MaxCodeLength + 1]int32
	maxCode  [MaxCodeLength + 1]int32 // -1 when no codes of that length
	valPtr   [MaxCodeLength + 1]int32
	values   []byte
	lookup   [1 << lookupBits]uint16 // (size<<8)|symbol, 0 means invalid
	probes   [1 << ProbeBits]Probe
	maxLen   uint
	numCodes int
}

// New compiles a Spec into a Table.
func New(spec Spec) (*Table, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := &Table{spec: spec}
	t.values = append([]byte(nil), spec.Values...)

	// Generate canonical code sizes and codes (Annex C figures C.1-C.3).
	var huffSize []uint8
	for l := 1; l <= MaxCodeLength; l++ {
		for i := 0; i < int(spec.Counts[l-1]); i++ {
			huffSize = append(huffSize, uint8(l))
		}
	}
	t.numCodes = len(huffSize)
	var huffCode []uint32
	code := uint32(0)
	si := huffSize[0]
	for k := 0; k < len(huffSize); {
		for k < len(huffSize) && huffSize[k] == si {
			huffCode = append(huffCode, code)
			code++
			k++
		}
		code <<= 1
		si++
	}

	// Encoder tables indexed by symbol.
	for k, sym := range spec.Values {
		t.codes[sym] = huffCode[k]
		t.sizes[sym] = huffSize[k]
	}

	// Decoder canonical ranges.
	k := int32(0)
	for l := 1; l <= MaxCodeLength; l++ {
		if spec.Counts[l-1] == 0 {
			t.maxCode[l] = -1
			continue
		}
		t.valPtr[l] = k
		t.minCode[l] = int32(huffCode[k])
		k += int32(spec.Counts[l-1])
		t.maxCode[l] = int32(huffCode[k-1])
		t.maxLen = uint(l)
	}

	// First-level lookup: every code of length ≤ lookupBits fills all
	// entries sharing its prefix.
	for kk, sym := range spec.Values {
		size := uint(huffSize[kk])
		if size > lookupBits {
			continue
		}
		c := huffCode[kk] << (lookupBits - size)
		n := uint32(1) << (lookupBits - size)
		for i := uint32(0); i < n; i++ {
			t.lookup[c+i] = uint16(size)<<8 | uint16(sym)
		}
	}
	t.buildProbes(huffCode, huffSize)
	return t, nil
}

// buildProbes fills the one-probe LUT: every code of length <= ProbeBits
// fills the entries sharing its prefix and, where the magnitude bits fit
// in the index as well, one run of entries per magnitude.
func (t *Table) buildProbes(huffCode []uint32, huffSize []uint8) {
	fill := func(p []Probe, e Probe) {
		for i := range p {
			p[i] = e
		}
	}
	for k, sym := range t.spec.Values {
		l := uint(huffSize[k])
		if l > ProbeBits {
			continue
		}
		size := uint(sym & 15)
		span := uint32(1) << (ProbeBits - l)
		first := huffCode[k] << (ProbeBits - l)
		entries := t.probes[first : first+span]
		if size == 0 || l+size > ProbeBits {
			fill(entries, symbolProbe(l, sym))
			continue
		}
		sub := span >> size
		for m := uint32(0); m < 1<<size; m++ {
			v := uint16(Extend(m, size))
			fill(entries[m*sub:(m+1)*sub], Probe(l+size)|Probe(sym>>4)<<5|Probe(v)<<16)
		}
	}
}

// symbolProbe is the entry of an l-bit code for sym whose magnitude bits,
// if it has any, are still to be read.
func symbolProbe(l uint, sym byte) Probe {
	e := Probe(l) | Probe(sym>>4)<<5
	if sym&15 == 0 {
		return e | probeZeroSize
	}
	return e | Probe(sym&15)<<9
}

// ProbeLong resolves a code longer than ProbeBits from a left-aligned
// bit window holding at least MaxCodeLength bits, in the form of a LUT
// entry that never carries a value. It is the second step of a probe
// whose LUT entry had Len 0, and returns 0 itself when the bits start no
// code at all (Decode then reports it).
func (t *Table) ProbeLong(acc uint64) Probe {
	// No shorter code matched, so the canonical ranges can be walked from
	// here: the first length whose largest code is not below the prefix
	// holds it.
	for l := uint(ProbeBits + 1); l <= MaxCodeLength; l++ {
		if code := int32(acc >> (64 - l)); code <= t.maxCode[l] { // -1 where no code has the length
			return symbolProbe(l, t.values[t.valPtr[l]+code-t.minCode[l]])
		}
	}
	return 0
}

// Probes returns the one-probe LUT. The entropy stage's inner loops
// index it with the top ProbeBits of their bit window; Decode stays the
// general path for whatever an entry cannot resolve.
func (t *Table) Probes() *[1 << ProbeBits]Probe { return &t.probes }

// Spec returns a copy of the interchange-format spec for this table.
func (t *Table) Spec() Spec {
	return Spec{Counts: t.spec.Counts, Values: append([]byte(nil), t.spec.Values...)}
}

// NumCodes returns the number of symbols in the table.
func (t *Table) NumCodes() int { return t.numCodes }

// Code returns the code and bit size for a symbol. size==0 means the symbol
// is not in the table.
func (t *Table) Code(sym byte) (code uint32, size uint8) {
	return t.codes[sym], t.sizes[sym]
}

// Encode appends the code for sym to w.
func (t *Table) Encode(w *bitstream.Writer, sym byte) error {
	size := t.sizes[sym]
	if size == 0 {
		return fmt.Errorf("huffman: symbol %#02x not in table", sym)
	}
	w.WriteBits(t.codes[sym], uint(size))
	return nil
}

// Decode reads one symbol from r.
func (t *Table) Decode(r *bitstream.Reader) (byte, error) {
	// Fast path: refill once to >= 32 bits (one code plus its appended
	// magnitude bits), then decode with an unchecked peek against the
	// flat table. Near the end of input fewer bits may remain buffered;
	// any still-decodable short code falls through to the slow path.
	if r.Fill32() || r.Bits() >= lookupBits {
		e := t.lookup[r.MustPeek(lookupBits)]
		if e != 0 {
			r.Consume(uint(e >> 8))
			return byte(e), nil
		}
	}
	// Slow path: canonical walk, one bit at a time.
	code := int32(0)
	for l := uint(1); l <= t.maxLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | int32(b)
		if t.maxCode[l] >= 0 && code <= t.maxCode[l] {
			return t.values[t.valPtr[l]+code-t.minCode[l]], nil
		}
	}
	return 0, fmt.Errorf("huffman: invalid code prefix %#x", code)
}

// BuildFromFrequencies constructs an optimal-length-limited Spec from symbol
// frequencies using the JPEG Annex K.2 procedure (as in libjpeg's
// jpeg_gen_optimal_table). Symbols with zero frequency are omitted.
func BuildFromFrequencies(freq [256]int64) (Spec, error) {
	// Local copies; reserve one code point (symbol 256) so no code is all
	// ones, per the JPEG convention.
	var f [257]int64
	for i, v := range freq {
		if v < 0 {
			return Spec{}, fmt.Errorf("huffman: negative frequency for symbol %d", i)
		}
		f[i] = v
	}
	f[256] = 1
	var codesize [257]int
	var others [257]int
	for i := range others {
		others[i] = -1
	}

	for {
		// Find least and second-least frequent nonzero entries.
		c1, c2 := -1, -1
		var v1, v2 int64 = 1 << 62, 1 << 62
		for i := 0; i <= 256; i++ {
			if f[i] == 0 {
				continue
			}
			if f[i] <= v1 {
				c2, v2 = c1, v1
				c1, v1 = i, f[i]
			} else if f[i] <= v2 {
				c2, v2 = i, f[i]
			}
		}
		if c2 < 0 {
			break // only one tree left
		}
		f[c1] += f[c2]
		f[c2] = 0
		codesize[c1]++
		for others[c1] >= 0 {
			c1 = others[c1]
			codesize[c1]++
		}
		others[c1] = c2
		codesize[c2]++
		for others[c2] >= 0 {
			c2 = others[c2]
			codesize[c2]++
		}
	}

	var bits [33]int
	for i := 0; i <= 256; i++ {
		if codesize[i] > 0 {
			if codesize[i] > 32 {
				return Spec{}, errors.New("huffman: code length overflow")
			}
			bits[codesize[i]]++
		}
	}
	// Limit code lengths to 16 (Annex K.2 adjustment).
	for l := 32; l > 16; l-- {
		for bits[l] > 0 {
			j := l - 2
			for bits[j] == 0 {
				j--
			}
			bits[l] -= 2
			bits[l-1]++
			bits[j+1] += 2
			bits[j]--
		}
	}
	// Remove the reserved code point from the longest nonzero length.
	l := 16
	for l > 0 && bits[l] == 0 {
		l--
	}
	if l == 0 {
		return Spec{}, errors.New("huffman: no symbols")
	}
	bits[l]--

	var spec Spec
	for i := 1; i <= 16; i++ {
		spec.Counts[i-1] = byte(bits[i])
	}
	// Values sorted by code length then symbol value.
	for size := 1; size <= 32; size++ {
		for i := 0; i < 256; i++ {
			if codesize[i] == size {
				spec.Values = append(spec.Values, byte(i))
			}
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}
