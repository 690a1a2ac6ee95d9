// Package pool provides bucketed slab pools for the decoder's large
// per-decode buffers (whole-image coefficients, sample planes, RGB
// pixels and the per-block nonzero masks of the encoder and of
// progressive refinement). A batch service
// decodes millions of images per process; recycling these slabs keeps
// steady-state allocation flat instead of churning hundreds of MB/s
// through the GC.
//
// Slabs are bucketed by power-of-two capacity class so a small chroma
// slab never evicts a reusable luma slab: Get(n) rounds n up to its
// class, so any slab found in that class is big enough.
//
// Each class is a bounded LIFO free list under the pool's mutex, shared
// by every goroutine: a slab one goroutine puts back is the next one any
// goroutine gets, whichever processor either runs on. What a pool parks
// is bounded twice, by maxPerClass slabs in each class and by
// maxParkedBytes over all classes; a Put over either cap drops the slab
// to the garbage collector. A batch keeps a few images in flight, each
// holding a few slabs of a class, so the caps keep what a decode will
// want again and no high-water mark beyond it.
//
// A slab's contents are unspecified: a recycled slab still holds its
// previous owner's data. Every buffer of a decode is overwritten in full
// by the stage that owns it, so clearing here would be a second pass
// over memory nobody reads; the few owners that promise zeros clear for
// themselves. Under the race detector Get poisons what it hands out, so
// a read-before-write fails the test suites instead of going unnoticed.
package pool

import (
	"math/bits"
	"sync"
	"unsafe"
)

// The caps on what one pool parks. maxPerClass covers the slabs of one
// class that a batch of in-flight images holds at once. maxParkedBytes
// bounds a pool that has seen large images; it sits above what a batch
// of sub-megapixel images keeps in use (some 90 MB of coefficients),
// because a cap that binds in steady state turns every dropped slab
// into garbage and a fresh allocation, and the heap grows with both.
const (
	maxPerClass    = 8
	maxParkedBytes = 128 << 20
)

// poison makes Get fill what it returns; only poison_race.go sets it.
var poison bool

// Slab is a size-class-bucketed pool of []T slabs. The zero value is
// ready to use and safe for concurrent use.
type Slab[T byte | int16 | int32 | uint64] struct {
	mu      sync.Mutex
	classes [bits.UintSize][][]T // class c holds slabs with cap >= 1<<c, most recent last
	parked  int                  // bytes of capacity across all classes
}

// class returns the smallest c with 1<<c >= n.
func class(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a slice of length n with unspecified contents, reusing a
// pooled slab when one of sufficient capacity is available.
func (p *Slab[T]) Get(n int) []T {
	if n == 0 {
		return nil
	}
	c := class(n)
	var s []T
	p.mu.Lock()
	if free := p.classes[c]; len(free) > 0 {
		s = free[len(free)-1]
		free[len(free)-1] = nil
		p.classes[c] = free[:len(free)-1]
		p.parked -= slabBytes(s)
	}
	p.mu.Unlock()
	if s == nil {
		s = make([]T, n, 1<<c)
	}
	s = s[:n]
	if poison {
		fill := int64(-0x5A5A5A5A5A5A5A5B) // 0xA5 in every byte of any T
		for i := range s {
			s[i] = T(fill)
		}
	}
	return s
}

// Put files the slab for reuse, or drops it when its class already
// holds maxPerClass slabs or it would take the pool over
// maxParkedBytes. The caller must not touch s afterwards.
func (p *Slab[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	// File by the capacity's floor class, so every slab in class c has
	// cap >= 1<<c whatever its exact capacity.
	c := bits.Len(uint(cap(s))) - 1
	b := slabBytes(s)
	p.mu.Lock()
	if len(p.classes[c]) < maxPerClass && p.parked+b <= maxParkedBytes {
		p.classes[c] = append(p.classes[c], s[:0])
		p.parked += b
	}
	p.mu.Unlock()
}

// slabBytes is the memory s's capacity holds.
func slabBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}
