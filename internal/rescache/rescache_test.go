package rescache

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"hetjpeg/internal/core"
	"hetjpeg/internal/jpegcodec"
)

// fakeResult builds a Result shaped like a finished decode: a pooled
// pixel buffer whose Release path is the real one.
func fakeResult(w, h int) *core.Result {
	return &core.Result{Image: jpegcodec.NewRGBImage(w, h)}
}

func keyN(n int, scale jpegcodec.Scale, salvage bool) Key {
	return KeyFor([]byte(fmt.Sprintf("image-%d", n)), scale, salvage)
}

func mustDo(t *testing.T, c *Cache, k Key, w, h int) (*Entry, Status) {
	t.Helper()
	ent, st, err := c.Do(context.Background(), k, func() (*core.Result, error) {
		return fakeResult(w, h), nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if ent == nil {
		t.Fatal("Do returned nil entry without error")
	}
	return ent, st
}

func TestKeyForIsolatesScaleAndSalvage(t *testing.T) {
	data := []byte("the same jpeg bytes")
	base := KeyFor(data, jpegcodec.Scale1, false)
	if KeyFor(data, jpegcodec.Scale1, false) != base {
		t.Error("KeyFor not deterministic")
	}
	if KeyFor(data, 0, false) != base {
		t.Error("zero scale not normalized to Scale1")
	}
	if KeyFor(data, jpegcodec.Scale1, true) == base {
		t.Error("salvage flag not part of the key: a salvaged partial result could serve a strict request")
	}
	for _, s := range []jpegcodec.Scale{jpegcodec.Scale2, jpegcodec.Scale4, jpegcodec.Scale8} {
		if KeyFor(data, s, false) == base {
			t.Errorf("scale %v not part of the key", s)
		}
	}
	if KeyFor([]byte("other bytes"), jpegcodec.Scale1, false) == base {
		t.Error("content not part of the key")
	}
}

func TestHitMissAndStats(t *testing.T) {
	c := New(1 << 20)
	k := keyN(1, jpegcodec.Scale1, false)

	if ent := c.Get(k); ent != nil {
		t.Fatal("Get on empty cache returned an entry")
	}
	ent, st := mustDo(t, c, k, 16, 16)
	if st != Miss {
		t.Fatalf("first Do status = %v, want Miss", st)
	}
	ent.Release()

	ent2 := c.Get(k)
	if ent2 == nil {
		t.Fatal("Get after Do missed")
	}
	if ent2.Result().Image.W != 16 {
		t.Errorf("cached width %d, want 16", ent2.Result().Image.W)
	}
	ent3, st := mustDo(t, c, k, 16, 16)
	if st != Hit {
		t.Fatalf("second Do status = %v, want Hit", st)
	}
	ent2.Release()
	ent3.Release()
	c.NoteBypass()

	stats := c.Stats()
	if stats.Hits != 2 || stats.Misses != 1 || stats.Bypasses != 1 || stats.Entries != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 1 bypass / 1 entry", stats)
	}
	if stats.Bytes <= 0 || stats.Bytes > stats.Capacity {
		t.Errorf("resident bytes %d out of range (capacity %d)", stats.Bytes, stats.Capacity)
	}
}

func TestLRUEvictionByByteBudget(t *testing.T) {
	// Each 32x32 entry costs 3072 + overhead bytes; budget fits two.
	entrySize := resultBytes(fakeResult(32, 32))
	c := New(2 * entrySize)

	for i := 0; i < 2; i++ {
		ent, _ := mustDo(t, c, keyN(i, jpegcodec.Scale1, false), 32, 32)
		ent.Release()
	}
	// Touch entry 0 so entry 1 is the LRU victim.
	if ent := c.Get(keyN(0, jpegcodec.Scale1, false)); ent == nil {
		t.Fatal("entry 0 missing")
	} else {
		ent.Release()
	}
	ent, _ := mustDo(t, c, keyN(2, jpegcodec.Scale1, false), 32, 32)
	ent.Release()

	if c.Get(keyN(1, jpegcodec.Scale1, false)) != nil {
		t.Error("LRU entry 1 survived eviction")
	}
	for _, want := range []int{0, 2} {
		ent := c.Get(keyN(want, jpegcodec.Scale1, false))
		if ent == nil {
			t.Errorf("entry %d evicted, want resident", want)
			continue
		}
		ent.Release()
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction / 2 entries", st)
	}
}

// TestEvictionSparesHeldReferences pins the refcount contract: evicting
// an entry a reader still holds must not free its pixels; the pixels go
// back to the pool only at the reader's Release.
func TestEvictionSparesHeldReferences(t *testing.T) {
	entrySize := resultBytes(fakeResult(32, 32))
	c := New(entrySize) // budget of exactly one entry

	held, _ := mustDo(t, c, keyN(0, jpegcodec.Scale1, false), 32, 32)
	// Insert a second entry: the first is evicted while still held.
	ent, _ := mustDo(t, c, keyN(1, jpegcodec.Scale1, false), 32, 32)
	ent.Release()

	if c.Get(keyN(0, jpegcodec.Scale1, false)) != nil {
		t.Fatal("evicted entry still resident")
	}
	if held.Result().Image.Pix == nil {
		t.Fatal("eviction freed pixels a reference was still reading")
	}
	held.Release()
	if held.Result().Image.Pix != nil {
		t.Error("last Release did not return the pixel slab")
	}
}

// TestReleaseAfterFreePanics pins the use-after-release guard: once the
// last reference is gone and the slabs went back to the pool, another
// Release must panic instead of double-freeing. (While an entry is
// still cache-resident, one holder's double release is indistinguishable
// from another holder's legitimate one — the guard is at zero.)
func TestReleaseAfterFreePanics(t *testing.T) {
	var c *Cache // disabled cache: the single reference is the caller's
	ent, _, err := c.Do(context.Background(), keyN(0, jpegcodec.Scale1, false), func() (*core.Result, error) {
		return fakeResult(8, 8), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ent.Release()
	defer func() {
		if recover() == nil {
			t.Error("Release after free did not panic")
		}
	}()
	ent.Release()
}

func TestFailedDecodeIsNotCached(t *testing.T) {
	c := New(1 << 20)
	k := keyN(0, jpegcodec.Scale1, false)
	boom := errors.New("corrupt stream")
	ent, st, err := c.Do(context.Background(), k, func() (*core.Result, error) {
		return nil, boom
	})
	if ent != nil || st != Miss || !errors.Is(err, boom) {
		t.Fatalf("failed Do = (%v, %v, %v), want (nil, Miss, boom)", ent, st, err)
	}
	if c.Get(k) != nil {
		t.Error("failed decode was cached")
	}
	// The key is retryable: the next Do runs a fresh decode.
	ent2, st2 := mustDo(t, c, k, 8, 8)
	if st2 != Miss {
		t.Errorf("retry after failure status = %v, want Miss", st2)
	}
	ent2.Release()
}

// TestLeaderDeadlineDoesNotFailWaiters pins that a flight ended by its
// leader's own deadline is not a failure of the image: a waiter whose
// ctx is still live starts over and decodes, while a real decode error
// is still shared with every waiter.
func TestLeaderDeadlineDoesNotFailWaiters(t *testing.T) {
	boom := errors.New("corrupt stream")
	for _, tc := range []struct {
		name    string
		leadErr func(ctx context.Context) error
		want    error // nil: the waiter must decode and succeed
	}{
		{"deadline", func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }, nil},
		{"decode error", func(context.Context) error { return boom }, boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(1 << 20)
			k := keyN(0, jpegcodec.Scale1, false)
			lctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			joined := make(chan struct{})
			leaderDone := make(chan error, 1)
			go func() {
				_, _, err := c.Do(lctx, k, func() (*core.Result, error) {
					<-joined
					return nil, tc.leadErr(lctx)
				})
				leaderDone <- err
			}()
			waiterDone := make(chan struct{})
			var (
				ent *Entry
				err error
			)
			go func() {
				defer close(waiterDone)
				// Join only once the leader's flight exists.
				for c.Stats().Misses == 0 {
					time.Sleep(time.Millisecond)
				}
				ent, _, err = c.Do(context.Background(), k, func() (*core.Result, error) {
					return fakeResult(8, 8), nil
				})
			}()
			for c.Stats().Waits == 0 {
				time.Sleep(time.Millisecond)
			}
			close(joined)
			<-waiterDone
			if lerr := <-leaderDone; lerr == nil {
				t.Fatal("leader succeeded, want its failure")
			}
			if tc.want == nil {
				if err != nil || ent == nil {
					t.Fatalf("waiter got (%v, %v), want a decoded entry: the leader's deadline failed it", ent, err)
				}
				ent.Release()
				return
			}
			if ent != nil || !errors.Is(err, tc.want) {
				t.Fatalf("waiter got (%v, %v), want the leader's %v", ent, err, tc.want)
			}
		})
	}
}

// TestSalvagedErrorReplayed pins that a cached salvage-mode result
// replays its ErrPartialData-wrapping error to every hit, so the
// degraded-pixels disclaimer is never lost to caching.
func TestSalvagedErrorReplayed(t *testing.T) {
	c := New(1 << 20)
	k := keyN(0, jpegcodec.Scale1, true)
	partial := fmt.Errorf("salvaged: %w", jpegcodec.ErrPartialData)
	ent, st, err := c.Do(context.Background(), k, func() (*core.Result, error) {
		return fakeResult(8, 8), partial
	})
	if st != Miss || !errors.Is(err, jpegcodec.ErrPartialData) {
		t.Fatalf("salvaged Do = (%v, %v), want Miss + ErrPartialData", st, err)
	}
	ent.Release()
	ent2, st2, err2 := c.Do(context.Background(), k, func() (*core.Result, error) {
		t.Fatal("hit ran a decode")
		return nil, nil
	})
	if st2 != Hit || !errors.Is(err2, jpegcodec.ErrPartialData) {
		t.Errorf("salvaged hit = (%v, %v), want Hit + ErrPartialData", st2, err2)
	}
	if ent2.Err() == nil {
		t.Error("entry lost its salvage error")
	}
	ent2.Release()
}

func TestNilCacheIsBypass(t *testing.T) {
	var c *Cache // New(0) returns nil: caching disabled
	if New(0) != nil {
		t.Fatal("New(0) should disable the cache")
	}
	if c.Get(keyN(0, jpegcodec.Scale1, false)) != nil {
		t.Error("nil cache Get returned an entry")
	}
	c.NoteBypass()
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil cache stats = %+v, want zero", st)
	}
	decodes := 0
	for i := 0; i < 2; i++ {
		ent, st, err := c.Do(context.Background(), keyN(0, jpegcodec.Scale1, false), func() (*core.Result, error) {
			decodes++
			return fakeResult(8, 8), nil
		})
		if err != nil || st != Miss {
			t.Fatalf("nil cache Do = (%v, %v)", st, err)
		}
		if ent.Result().Image.Pix == nil {
			t.Fatal("nil cache entry unusable")
		}
		ent.Release()
		if ent.Result().Image.Pix != nil {
			t.Fatal("nil cache Release did not free the result")
		}
	}
	if decodes != 2 {
		t.Errorf("nil cache ran %d decodes, want 2 (no residency)", decodes)
	}
}

// TestOversizedEntryStillServes pins the keep-guard: a result larger
// than the whole budget is still handed to its requesters (and evicted
// as soon as the next insert needs room).
func TestOversizedEntryStillServes(t *testing.T) {
	c := New(64) // smaller than any real entry
	ent, st := mustDo(t, c, keyN(0, jpegcodec.Scale1, false), 64, 64)
	if st != Miss || ent.Result().Image.Pix == nil {
		t.Fatalf("oversized insert unusable (status %v)", st)
	}
	ent.Release()
	ent2, _ := mustDo(t, c, keyN(1, jpegcodec.Scale1, false), 64, 64)
	ent2.Release()
	if c.Get(keyN(0, jpegcodec.Scale1, false)) != nil {
		t.Error("oversized entry survived the next insert")
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{Hit: "hit", Miss: "miss", Wait: "wait", Status(99): "unknown"} {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(st), st.String(), want)
		}
	}
}
