package rescache

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"weak"

	"hetjpeg/internal/batch"
	"hetjpeg/internal/core"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/platform"
)

// TestResidentEntryFreesBody: a cached result keeps its pixels and its
// geometry, not its input. Decoded through the band scheduler, as the
// service decodes, a baseline and a progressive body each become
// collectable while their entries are still resident and still give
// the decoded pixels.
func TestResidentEntryFreesBody(t *testing.T) {
	img := imagegen.Generate(imagegen.Scene{Seed: 3, Detail: 0.5}, 160, 120)
	ex, err := batch.NewExecutor(batch.Options{Spec: platform.GTX560(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	c := New(1 << 26)
	ctx := context.Background()
	for _, progressive := range []bool{false, true} {
		body, err := jpegcodec.Encode(img, jpegcodec.EncodeOptions{Quality: 85, Subsampling: jfif.Sub420, Progressive: progressive})
		if err != nil {
			t.Fatal(err)
		}
		want, err := jpegcodec.DecodeScalar(body)
		if err != nil {
			t.Fatal(err)
		}
		key := KeyFor(body, jpegcodec.Scale1, false)
		alive := weak.Make(&body[0])
		ent, _, err := c.Do(ctx, key, func() (*core.Result, error) {
			ir, err := ex.Decode(ctx, body, jpegcodec.Scale1)
			if err != nil {
				return nil, err
			}
			return ir.Res, ir.Err
		})
		if err != nil {
			t.Fatal(err)
		}
		ent.Release()
		body = nil
		runtime.GC()
		runtime.GC()
		if alive.Value() != nil {
			t.Errorf("progressive %v: the body is still reachable from its resident entry", progressive)
		}
		ent = c.Get(key)
		if ent == nil {
			t.Fatalf("progressive %v: the entry is no longer resident", progressive)
		}
		if !bytes.Equal(ent.Result().Image.Pix, want.Pix) {
			t.Errorf("progressive %v: the resident pixels differ from the decode", progressive)
		}
		ent.Release()
		want.Release()
	}
}
