// Package pool provides bucketed slab pools for the decoder's large
// per-decode buffers (whole-image coefficients, sample planes, RGB
// pixels, and the simulated device's resident buffers). A batch service
// decodes millions of images per process; recycling these slabs keeps
// steady-state allocation flat instead of churning hundreds of MB/s
// through the GC.
//
// Slabs are bucketed by power-of-two capacity class so a small chroma
// slab never evicts a reusable luma slab: Get(n) rounds n up to its
// class, so any slab found in that class is big enough.
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
)

// poison makes Get fill what it returns; only poison_race.go sets it.
var poison bool

// Slab is a size-class-bucketed pool of []T slabs. The zero value is
// ready to use and safe for concurrent use.
type Slab[T byte | int16 | int32] struct {
	classes [bits.UintSize]sync.Pool // class c holds slabs with cap >= 1<<c
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
	if v := p.classes[c].Get(); v != nil {
		s = (*v.(*[]T))[:n]
	} else {
		s = make([]T, n, 1<<c)
	}
	if poison {
		fill := int64(-0x5A5A5A5B) // 0xA5 in every byte of any T
		for i := range s {
			s[i] = T(fill)
		}
	}
	return s
}

// Put files the slab for reuse. The caller must not touch s afterwards.
func (p *Slab[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	// File by the capacity's floor class, so every slab in class c has
	// cap >= 1<<c whatever its exact capacity.
	c := bits.Len(uint(cap(s))) - 1
	s = s[:0]
	p.classes[c].Put(&s)
}
