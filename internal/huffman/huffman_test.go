package huffman

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hetjpeg/internal/bitstream"
)

func mustTable(t *testing.T, spec Spec) *Table {
	t.Helper()
	tbl, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tbl
}

func TestStdTablesCompile(t *testing.T) {
	for _, spec := range []Spec{StdDCLuminance, StdDCChrominance, StdACLuminance, StdACChrominance} {
		tbl := mustTable(t, spec)
		if tbl.NumCodes() != len(spec.Values) {
			t.Fatalf("NumCodes=%d want %d", tbl.NumCodes(), len(spec.Values))
		}
	}
}

func TestEncodeDecodeAllSymbols(t *testing.T) {
	for name, spec := range map[string]Spec{
		"dcl": StdDCLuminance, "dcc": StdDCChrominance,
		"acl": StdACLuminance, "acc": StdACChrominance,
	} {
		tbl := mustTable(t, spec)
		w := bitstream.NewWriter()
		for _, sym := range spec.Values {
			if err := tbl.Encode(w, sym); err != nil {
				t.Fatalf("%s encode %#x: %v", name, sym, err)
			}
		}
		r := bitstream.NewReader(w.Flush())
		for _, want := range spec.Values {
			got, err := tbl.Decode(r)
			if err != nil {
				t.Fatalf("%s decode: %v", name, err)
			}
			if got != want {
				t.Fatalf("%s: got %#x want %#x", name, got, want)
			}
		}
	}
}

func TestCanonicalCodesArePrefixFree(t *testing.T) {
	tbl := mustTable(t, StdACLuminance)
	type cw struct {
		code uint32
		size uint8
	}
	var codes []cw
	for _, sym := range StdACLuminance.Values {
		c, s := tbl.Code(sym)
		codes = append(codes, cw{c, s})
	}
	for i, a := range codes {
		for j, b := range codes {
			if i == j {
				continue
			}
			// A prefix relation exists if the shorter code equals the
			// high bits of the longer one.
			if a.size <= b.size && b.code>>(b.size-a.size) == a.code {
				t.Fatalf("code %d is a prefix of code %d", i, j)
			}
		}
	}
}

func TestBuildFromFrequencies(t *testing.T) {
	var freq [256]int64
	freq[0] = 1000
	freq[1] = 500
	freq[2] = 250
	freq[3] = 125
	freq[7] = 60
	freq[255] = 1
	spec, err := BuildFromFrequencies(freq)
	if err != nil {
		t.Fatalf("BuildFromFrequencies: %v", err)
	}
	tbl := mustTable(t, spec)
	// The most frequent symbol must not have a longer code than the
	// least frequent one.
	_, s0 := tbl.Code(0)
	_, s255 := tbl.Code(255)
	if s0 == 0 || s255 == 0 {
		t.Fatal("symbols missing from optimal table")
	}
	if s0 > s255 {
		t.Fatalf("frequent symbol got longer code (%d) than rare (%d)", s0, s255)
	}
	// Round trip.
	w := bitstream.NewWriter()
	seq := []byte{0, 1, 2, 3, 7, 255, 0, 0, 1}
	for _, sym := range seq {
		if err := tbl.Encode(w, sym); err != nil {
			t.Fatal(err)
		}
	}
	r := bitstream.NewReader(w.Flush())
	for _, want := range seq {
		got, err := tbl.Decode(r)
		if err != nil || got != want {
			t.Fatalf("got %d,%v want %d", got, err, want)
		}
	}
}

func TestBuildFromFrequenciesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var freq [256]int64
		nsym := 2 + rng.Intn(120)
		var present []byte
		for i := 0; i < nsym; i++ {
			s := byte(rng.Intn(256))
			freq[s] += int64(1 + rng.Intn(10000))
			present = append(present, s)
		}
		spec, err := BuildFromFrequencies(freq)
		if err != nil {
			return false
		}
		tbl, err := New(spec)
		if err != nil {
			return false
		}
		// Encode+decode a random sequence of present symbols.
		w := bitstream.NewWriter()
		var seq []byte
		for i := 0; i < 300; i++ {
			s := present[rng.Intn(len(present))]
			seq = append(seq, s)
			if err := tbl.Encode(w, s); err != nil {
				return false
			}
		}
		r := bitstream.NewReader(w.Flush())
		for _, want := range seq {
			got, err := tbl.Decode(r)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	// Over-subscribed: two codes of length 1 plus one of length 2.
	bad := Spec{Counts: [16]byte{2, 1}, Values: []byte{1, 2, 3}}
	if err := bad.Validate(); err == nil {
		t.Fatal("over-subscribed spec accepted")
	}
	// Count/value mismatch.
	bad = Spec{Counts: [16]byte{1}, Values: []byte{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched spec accepted")
	}
	// Empty.
	bad = Spec{}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestDecodeLongCodes(t *testing.T) {
	// The AC tables contain 16-bit codes, longer than the lookup table
	// width; ensure the slow path decodes them.
	tbl := mustTable(t, StdACLuminance)
	long := StdACLuminance.Values[len(StdACLuminance.Values)-1] // longest code symbol
	w := bitstream.NewWriter()
	for i := 0; i < 5; i++ {
		if err := tbl.Encode(w, long); err != nil {
			t.Fatal(err)
		}
	}
	r := bitstream.NewReader(w.Flush())
	for i := 0; i < 5; i++ {
		got, err := tbl.Decode(r)
		if err != nil || got != long {
			t.Fatalf("long code decode: got %#x err=%v want %#x", got, err, long)
		}
	}
}

func BenchmarkDecodeACLuminance(b *testing.B) {
	tbl, _ := New(StdACLuminance)
	rng := rand.New(rand.NewSource(1))
	w := bitstream.NewWriter()
	n := 4096
	for i := 0; i < n; i++ {
		sym := StdACLuminance.Values[rng.Intn(len(StdACLuminance.Values))]
		_ = tbl.Encode(w, sym)
	}
	data := w.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bitstream.NewReader(data)
		for j := 0; j < n; j++ {
			if _, err := tbl.Decode(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestExtendMatchesSpec(t *testing.T) {
	// T.81 F.2.2.1 as written.
	for n := uint(1); n <= 15; n++ {
		for v := uint32(0); v < 1<<n; v++ {
			want := int32(v)
			if v < 1<<(n-1) {
				want = int32(v) - int32(1<<n) + 1
			}
			if got := Extend(v, n); got != want {
				t.Fatalf("Extend(%d, %d) = %d, want %d", v, n, got, want)
			}
		}
	}
}

// TestProbesAgreeWithDecode checks, for every 16-bit prefix, what the
// LUT and ProbeLong make of it against what Decode and ReadBits make of
// the same bits, on the standard tables and on an optimal table with
// codes past the index width.
func TestProbesAgreeWithDecode(t *testing.T) {
	var freq [256]int64
	for i := range freq {
		freq[i] = int64(1 + i*i%97) // 256 symbols: lengths up to 16
	}
	long, err := BuildFromFrequencies(freq)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{StdDCLuminance, StdDCChrominance, StdACLuminance, StdACChrominance, long} {
		tab, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		inIndex, past := 0, 0
		for p := 0; p < 1<<16; p++ {
			acc := uint64(p) << 48
			e := tab.Probes()[acc>>(64-ProbeBits)]
			if e.Len() == 0 {
				e = tab.ProbeLong(acc)
			}
			w := bitstream.NewWriter()
			w.WriteBits(uint32(p), 16)
			w.WriteBits(0, 16)
			r := bitstream.NewReader(w.Flush())
			sym, err := tab.Decode(r)
			if err != nil {
				if e.Len() != 0 {
					t.Fatalf("prefix %#04x: entry %#x where Decode fails: %v", p, e, err)
				}
				continue
			}
			codeLen := uint(32 - r.BitsBuffered())
			size := uint(sym & 15)
			if e.Run() != int(sym>>4) || e.ZeroSize() != (size == 0) {
				t.Fatalf("prefix %#04x: entry %#x, symbol %#02x", p, e, sym)
			}
			if size == 0 || codeLen+size > ProbeBits {
				if e.Len() != codeLen || e.Extra() != size || e.Value() != 0 {
					t.Fatalf("prefix %#04x: entry %#x, want len %d extra %d", p, e, codeLen, size)
				}
				if codeLen > ProbeBits {
					past++
				}
				continue
			}
			bits, _ := r.ReadBits(size)
			if e.Len() != codeLen+size || e.Extra() != 0 || e.Value() != Extend(bits, size) {
				t.Fatalf("prefix %#04x: entry %#x, want len %d value %d", p, e, codeLen+size, Extend(bits, size))
			}
			inIndex++
		}
		if len(spec.Values) > 12 && (inIndex == 0 || past == 0) {
			t.Errorf("AC table: %d prefixes resolved with their magnitude, %d past the index", inIndex, past)
		}
	}
}

func TestStandardRecognisesAnnexK(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want *Table
	}{
		{StdDCLuminance, StdDCLuminanceTable}, {StdDCChrominance, StdDCChrominanceTable},
		{StdACLuminance, StdACLuminanceTable}, {StdACChrominance, StdACChrominanceTable},
	} {
		if got := Standard(c.spec.Counts[:], c.spec.Values); got != c.want {
			t.Errorf("Standard did not return the shared table for %v", c.spec.Counts)
		}
		other := append([]byte(nil), c.spec.Values...)
		other[0], other[1] = other[1], other[0]
		if Standard(c.spec.Counts[:], other) != nil {
			t.Errorf("Standard matched a table with swapped values")
		}
	}
}
