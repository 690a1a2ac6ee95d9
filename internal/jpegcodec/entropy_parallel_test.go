package jpegcodec

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"hetjpeg/internal/faultgen"
	"hetjpeg/internal/jfif"
)

func restartFixture(t testing.TB, w, h, ri int, sub jfif.Subsampling) []byte {
	t.Helper()
	img := makeTestImage(w, h, 19)
	data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: sub, RestartInterval: ri})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestParallelRestartMatchesSequential(t *testing.T) {
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		for _, ri := range []int{1, 3, 7, 100} {
			data := restartFixture(t, 180, 140, ri, sub)

			fSeq, edSeq, err := PrepareDecode(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := edSeq.DecodeAll(); err != nil {
				t.Fatal(err)
			}

			fPar, _, err := PrepareDecode(data)
			if err != nil {
				t.Fatal(err)
			}
			bits, err := DecodeAllParallelRestart(fPar, 8)
			if err != nil {
				t.Fatalf("%v ri=%d: %v", sub, ri, err)
			}

			for c := range fSeq.Coeff {
				for i := range fSeq.Coeff[c] {
					if fSeq.Coeff[c][i] != fPar.Coeff[c][i] {
						t.Fatalf("%v ri=%d: coefficient %d/%d differs", sub, ri, c, i)
					}
				}
			}
			// Per-row bit accounting must agree (restart markers and
			// byte-alignment padding are excluded from both counts'
			// comparison tolerance: padding bits differ by < 8 per
			// segment boundary row).
			if len(bits) != len(edSeq.BitsPerRow) {
				t.Fatalf("row count %d vs %d", len(bits), len(edSeq.BitsPerRow))
			}
			// Sequential accounting charges each restart marker (16
			// bits) plus byte-alignment padding (<8 bits) to the row
			// containing it; the parallel decoder never sees them. Allow
			// 24 bits per segment boundary that can fall in a row.
			boundaries := fSeq.MCUsPerRow/ri + 2
			for i := range bits {
				d := bits[i] - edSeq.BitsPerRow[i]
				if d < 0 {
					d = -d
				}
				if d > int64(24*boundaries) {
					t.Errorf("%v ri=%d row %d: bits %d vs %d", sub, ri, i, bits[i], edSeq.BitsPerRow[i])
				}
			}
		}
	}
}

func TestParallelRestartRejectsPlainStream(t *testing.T) {
	img := makeTestImage(64, 48, 2)
	data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub422})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := PrepareDecode(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAllParallelRestart(f, 4); err == nil {
		t.Fatal("stream without DRI accepted")
	}
}

func TestParallelRestartSingleWorker(t *testing.T) {
	data := restartFixture(t, 96, 96, 4, jfif.Sub422)
	fA, _, err := PrepareDecode(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAllParallelRestart(fA, 1); err != nil {
		t.Fatal(err)
	}
	out := NewRGBImage(fA.Img.Width, fA.Img.Height)
	ParallelPhaseScalar(fA, 0, fA.MCURows, out)

	ref, err := DecodeScalar(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Pix {
		if ref.Pix[i] != out.Pix[i] {
			t.Fatal("single-worker parallel decode differs from scalar")
		}
	}
}

// TestParallelRestartFailingSegments overwrites whole restart segments
// with stuffed 0xFF bytes, which no Huffman code can start. Every worker
// fails while segments remain, so the decode must still return, leave
// no goroutine behind, and report the lowest-index failing segment's
// error at every worker count.
func TestParallelRestartFailingSegments(t *testing.T) {
	data := restartFixture(t, 96, 96, 4, jfif.Sub422)
	span := faultgen.EntropySpans(data)[0]
	var rst []int // offsets of the restart markers
	for i := span.Start; i+1 < span.End; i++ {
		if data[i] == 0xFF && data[i+1] >= 0xD0 && data[i+1] <= 0xD7 {
			rst = append(rst, i)
		}
	}
	if len(rst) < 8 {
		t.Fatalf("fixture has %d restart markers", len(rst))
	}
	// wreck overwrites segment k (bytes between markers k-1 and k).
	wreck := func(d []byte, k int) {
		from := span.Start
		if k > 0 {
			from = rst[k-1] + 2
		}
		for i := from; i+1 < rst[k]; i += 2 {
			d[i], d[i+1] = 0xFF, 0x00
		}
	}
	for _, bad := range [][]int{{0}, {0, 1, 2, 3, 4, 5, 6, 7}, {5, 2}} {
		d := append([]byte(nil), data...)
		for _, k := range bad {
			wreck(d, k)
		}
		want := ""
		for _, w := range []int{1, 2, 4, 8} {
			before := runtime.NumGoroutine()
			f, _, err := PrepareDecode(d)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := DecodeAllParallelRestart(f, w)
				done <- err
			}()
			select {
			case err = <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("segments %v, %d workers: no return after 5 s", bad, w)
			}
			f.Release()
			if err == nil {
				t.Fatalf("segments %v, %d workers: corrupt stream accepted", bad, w)
			}
			if want == "" {
				want = err.Error()
			} else if err.Error() != want {
				t.Fatalf("segments %v, %d workers: error %q, want %q", bad, w, err, want)
			}
			for i := 0; runtime.NumGoroutine() > before; i++ {
				if i == 100 {
					t.Fatalf("segments %v, %d workers: %d goroutines, %d before", bad, w, runtime.NumGoroutine(), before)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		lowest := slices.Min(bad) * 4 // the first MCU of the lowest bad segment
		if !strings.Contains(want, fmt.Sprintf("segment MCU %d:", lowest)) {
			t.Fatalf("segments %v: error %q is not segment %d's", bad, want, slices.Min(bad))
		}
	}
}

func zeroCoeff(f *Frame) {
	for c := range f.Coeff {
		for i := range f.Coeff[c] {
			f.Coeff[c][i] = 0
		}
	}
}

func BenchmarkEntropySequential(b *testing.B) {
	data := restartFixture(b, 1024, 1024, 16, jfif.Sub422)
	f, _, err := PrepareDecode(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zeroCoeff(f)
		var ed EntropyDecoder
		ed.init(f)
		if err := ed.DecodeAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEntropyParallelRestart(b *testing.B) {
	data := restartFixture(b, 1024, 1024, 16, jfif.Sub422)
	f, _, err := PrepareDecode(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zeroCoeff(f)
		if _, err := DecodeAllParallelRestart(f, 8); err != nil {
			b.Fatal(err)
		}
	}
}
