package core

import (
	"bytes"
	"fmt"
	"image"
	stdjpeg "image/jpeg"
	"testing"

	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
)

// TestChunksAndTileCoverOutputRows checks the row bookkeeping the cost
// plans are charged from: for every subsampling, scale, split s and
// chunk size, the device chunks' output rows [y0, y1) followed by the
// CPU tile's [yStart, OutH) cover [0, OutH) in order, with no gap and
// no overlap.
func TestChunksAndTileCoverOutputRows(t *testing.T) {
	gray := image.NewGray(image.Rect(0, 0, 45, 83))
	var buf bytes.Buffer
	if err := stdjpeg.Encode(&buf, gray, nil); err != nil {
		t.Fatal(err)
	}
	streams := map[string][]byte{"gray": buf.Bytes()}
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		streams[sub.String()] = encodeTest(t, 45, 83, sub, 0.5)
	}
	for name, data := range streams {
		for _, scale := range []jpegcodec.Scale{jpegcodec.Scale1, jpegcodec.Scale2, jpegcodec.Scale4, jpegcodec.Scale8} {
			f, _, err := jpegcodec.PrepareDecodeScaled(data, scale)
			if err != nil {
				t.Fatal(err)
			}
			st := &decodeState{f: f}
			for s := 0; s <= f.MCURows; s++ {
				for _, c := range []int{1, 2, 3, f.MCURows} {
					where := fmt.Sprintf("%s scale %v s=%d c=%d", name, scale, s, c)
					y := 0
					for _, ck := range st.makeChunks(s, c, f.RowBound(s)) {
						if ck.y0 != y || ck.y1 < ck.y0 {
							t.Fatalf("%s: chunk [%d,%d) rows [%d,%d) after row %d", where, ck.m0, ck.m1, ck.y0, ck.y1, y)
						}
						y = ck.y1
					}
					if tile := st.newCPUTile(s); tile.yStart != y {
						t.Fatalf("%s: CPU tile starts at row %d, chunks end at %d", where, tile.yStart, y)
					}
					if y > f.OutH {
						t.Fatalf("%s: rows end at %d past OutH %d", where, y, f.OutH)
					}
				}
			}
			f.Release()
		}
	}
}
