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
		if poison {
			t.Skip("sync.Pool drops a share of Puts under the race detector")
		}
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
	if &again[0] != &small[0] && !poison { // the race detector's sync.Pool drops Puts
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
