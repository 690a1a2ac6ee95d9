package pool

import "testing"

func TestClassRounding(t *testing.T) {
	cases := []struct{ n, c int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, tc := range cases {
		if got := class(tc.n); got != tc.c {
			t.Errorf("class(%d) = %d, want %d", tc.n, got, tc.c)
		}
	}
}

func TestGetPutReuse(t *testing.T) {
	var p Slab[int32]
	s := p.Get(1000)
	if len(s) != 1000 || cap(s) != 1024 {
		t.Fatalf("len %d cap %d", len(s), cap(s))
	}
	for i := range s {
		s[i] = int32(i)
	}
	p.Put(s)
	// A same-class request must reuse the slab, and Get must not have
	// spent a pass clearing it: contents are unspecified, which outside
	// race builds means untouched.
	r := p.Get(600)
	if len(r) != 600 {
		t.Fatalf("len %d", len(r))
	}
	if &r[0] != &s[0] {
		t.Fatal("slab not reused within its class")
	}
	for i, v := range r {
		if want := int32(i); !poison && v != want {
			t.Fatalf("recycled slab rewritten at %d: %d, want %d", i, v, want)
		}
		if poison && uint32(v) != 0xA5A5A5A5 {
			t.Fatalf("race build: slab not poisoned at %d: %#x", i, uint32(v))
		}
	}
}

// TestPoisonEveryByte checks that a race build fills every byte of a
// slab with 0xA5 whatever its element width, the 64-bit masks included.
func TestPoisonEveryByte(t *testing.T) {
	if !poison {
		t.Skip("slabs are poisoned only in race builds")
	}
	var p8 Slab[byte]
	var p16 Slab[int16]
	var p64 Slab[uint64]
	if v := p8.Get(3)[2]; v != 0xA5 {
		t.Errorf("byte slab: %#x", v)
	}
	if v := p16.Get(3)[2]; uint16(v) != 0xA5A5 {
		t.Errorf("int16 slab: %#x", uint16(v))
	}
	if v := p64.Get(3)[2]; v != 0xA5A5A5A5A5A5A5A5 {
		t.Errorf("uint64 slab: %#x", v)
	}
}

func TestNoUndersizedReuse(t *testing.T) {
	var p Slab[byte]
	small := p.Get(100)
	p.Put(small)
	big := p.Get(5000)
	if len(big) != 5000 {
		t.Fatalf("len %d", len(big))
	}
	// The small slab stays in its own class for the next small request.
	again := p.Get(90)
	if &again[0] != &small[0] {
		t.Error("small slab lost")
	}
}

func TestZeroLength(t *testing.T) {
	var p Slab[int16]
	if s := p.Get(0); s != nil {
		t.Error("Get(0) should be nil")
	}
	p.Put(nil) // must not panic
}

// TestReuseAcrossGoroutines: a slab put back on one goroutine is the
// next one a Get on another receives, whichever processors they ran on.
func TestReuseAcrossGoroutines(t *testing.T) {
	var p Slab[byte]
	put := make(chan *byte)
	go func() {
		s := p.Get(3000)
		p.Put(s)
		put <- &s[0]
	}()
	first := <-put
	got := make(chan *byte)
	go func() {
		s := p.Get(2500)
		got <- &s[0]
		p.Put(s)
	}()
	if <-got != first {
		t.Fatal("slab put on one goroutine not reused by a Get on another")
	}
}

// TestPutOverCapsDrops: a class keeps at most maxPerClass slabs, and a
// pool at most maxParkedBytes; a Put over either cap drops the slab.
func TestPutOverCapsDrops(t *testing.T) {
	var p Slab[int32]
	for i := 0; i <= maxPerClass; i++ {
		p.Put(make([]int32, 0, 1024))
	}
	if n := len(p.classes[class(1024)]); n != maxPerClass {
		t.Fatalf("class holds %d slabs after %d Puts, want %d", n, maxPerClass+1, maxPerClass)
	}

	// Two slabs of half the byte cap fill the pool, and a small one
	// more would take it over. The slabs are never written, so the
	// memory behind them is never touched.
	var q Slab[byte]
	q.Put(make([]byte, 0, maxParkedBytes/2))
	q.Put(make([]byte, 0, maxParkedBytes/2))
	q.Put(make([]byte, 0, 16))
	if q.parked != maxParkedBytes {
		t.Fatalf("parked %d bytes, want %d", q.parked, maxParkedBytes)
	}
	if n := len(q.classes[class(16)]); n != 0 {
		t.Fatalf("the Put over the byte cap was kept")
	}
}
