// Package rescache is a content-addressed cache of finished decode
// results for the gallery/web workload the paper motivates: the same
// hot images requested over and over at a handful of scales. Entries
// are keyed on (SHA-256 of the JPEG bytes, decode scale, salvage flag)
// — a salvaged partial result can never be served to a strict request,
// and a thumbnail never stands in for a full decode — and bounded by a
// byte budget with LRU eviction.
//
// Two properties make it safe in front of the pooled decoder:
//
//   - Entries are refcounted. The cache holds one reference while the
//     entry is resident; every Get/Do hands the caller another. The
//     underlying Result's pooled slabs go back to internal/pool only
//     when the LAST reference is released, so eviction can never free
//     pixels a response is still reading.
//
//   - Concurrent identical misses are collapsed (singleflight): the
//     first caller decodes, the other N-1 wait on the flight and share
//     the freshly inserted entry. N requests cost one decode.
//
// The cache stores only the image and its decode metadata: a Result's
// Frame gave its slabs (coefficients, sample planes) back when its back
// phase finished, so a resident entry costs its RGB pixels, not 3-4x
// that.
package rescache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"errors"
	"sync"

	"hetjpeg/internal/core"
	"hetjpeg/internal/jpegcodec"
)

// Key addresses one cacheable decode outcome. Scale is normalized
// (the zero value and Scale1 are the same key) and Salvage records
// whether the decode ran in salvage mode — strict and salvage results
// are never interchangeable even for identical bytes.
type Key struct {
	Hash    [sha256.Size]byte
	Scale   jpegcodec.Scale
	Salvage bool
}

// KeyFor builds the canonical key for a request: content hash of the
// exact JPEG bytes, the normalized decode scale, and the salvage flag.
func KeyFor(data []byte, scale jpegcodec.Scale, salvage bool) Key {
	if scale == 0 {
		scale = jpegcodec.Scale1
	}
	return Key{Hash: sha256.Sum256(data), Scale: scale, Salvage: salvage}
}

// Status classifies how a request met the cache.
type Status int

const (
	// Hit: the entry was resident; no decode, no wait.
	Hit Status = iota
	// Miss: this caller was the flight leader and ran the decode.
	Miss
	// Wait: an identical decode was already in flight; this caller
	// waited for the leader and shares its entry.
	Wait
)

// String names the status the way the X-Hetjpeg-Cache header spells it.
func (s Status) String() string {
	switch s {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Wait:
		return "wait"
	}
	return "unknown"
}

// Entry is one resident decode result plus the caller's reference to
// it. Result() stays valid — pixels resident, never returned to the
// slab pools — until Release(); releasing twice panics, as does
// touching the cache's accounting after it.
type Entry struct {
	c   *Cache
	key Key
	res *core.Result
	// err is nil or the decode's ErrPartialData-wrapping salvage error:
	// the cached result replays exactly what the original decode
	// returned, degraded-pixels disclaimer included.
	err  error
	size int64

	// Guarded by c.mu: the reference count (cache residency counts as
	// one) and the LRU list element (nil once evicted).
	refs int
	elem *list.Element
}

// Result returns the cached decode. The pointer is shared between all
// current reference holders; treat it as read-only.
func (e *Entry) Result() *core.Result { return e.res }

// Err returns the error the original decode carried alongside its
// result (nil, or a salvage error wrapping ErrPartialData).
func (e *Entry) Err() error { return e.err }

// Size is the entry's accounted resident bytes.
func (e *Entry) Size() int64 { return e.size }

// Release drops the caller's reference. When the last reference goes —
// the caller's, a waiter's, or the cache's own on eviction — the
// result's pooled slabs are returned. Releasing more than once panics:
// it would hand the same slab to the pool twice.
func (e *Entry) Release() {
	e.c.mu.Lock()
	if e.refs <= 0 {
		e.c.mu.Unlock()
		panic("rescache: Entry released after its last reference")
	}
	e.refs--
	free := e.refs == 0
	e.c.mu.Unlock()
	if free {
		// No reference can resurrect the entry (it left the LRU map
		// before its cache reference was dropped), so this is the one
		// true release of the pooled buffers.
		e.res.Release()
	}
}

// flight is one in-progress decode other callers can latch onto.
type flight struct {
	done    chan struct{}
	waiters int
	// Set before done is closed; ent carries one pre-granted reference
	// per waiter registered at completion time.
	ent *Entry
	err error
}

// Stats is a point-in-time snapshot of the cache's counters, the basis
// of the /metrics cache family.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Waits     uint64
	Bypasses  uint64
	Evictions uint64
	// Entries and Bytes describe current residency; Capacity the budget.
	Entries  int
	Bytes    int64
	Capacity int64
}

// Cache is the byte-budgeted LRU over finished decode results. The
// zero value is not usable; construct with New.
type Cache struct {
	max int64

	mu      sync.Mutex
	ll      *list.List // front = most recently used; values are *Entry
	entries map[Key]*Entry
	flights map[Key]*flight
	bytes   int64

	hits      uint64
	misses    uint64
	waits     uint64
	bypasses  uint64
	evictions uint64
}

// New builds a cache with the given byte budget. A non-positive budget
// returns nil; a nil *Cache is a valid always-miss, never-store cache,
// so callers can wire the knob straight through.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{
		max:     maxBytes,
		ll:      list.New(),
		entries: make(map[Key]*Entry),
		flights: make(map[Key]*flight),
	}
}

// Get is the hit-only probe: it returns a retained entry when resident
// (the caller must Release it) and nil on a miss, counting nothing for
// misses so a front end can probe before paying for admission and still
// let Do classify the request's true outcome.
func (c *Cache) Get(k Key) *Entry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ent := c.entries[k]
	if ent == nil {
		return nil
	}
	c.hits++
	ent.refs++
	c.ll.MoveToFront(ent.elem)
	return ent
}

// Do resolves one request through the cache: a resident entry is a Hit,
// joining an in-flight identical decode is a Wait, and otherwise this
// caller leads the flight (Miss), runs decode, and publishes the result
// to the cache and every waiter. On success the returned entry is
// retained for the caller (Release when done) and err replays the
// decode's salvage error if any. A failed decode (nil result) is not
// cached; the leader's error is shared with all waiters — except a
// cancellation or deadline, which belongs to the leader's request, not
// to the image: a waiter whose own ctx is still live starts over,
// leading a new flight or joining one (and is counted again).
//
// A waiter whose ctx expires before the leader finishes gets ctx's
// error; the flight itself is never cancelled by a waiter.
func (c *Cache) Do(ctx context.Context, k Key, decode func() (*core.Result, error)) (*Entry, Status, error) {
	if c == nil {
		res, err := decode()
		if res == nil {
			return nil, Miss, err
		}
		// Cacheless operation still needs a refcounted handle so the
		// caller's release path is uniform; the "cache" reference that
		// normally pins residency simply doesn't exist.
		ent := &Entry{c: disabledCache, res: res, err: err, size: resultBytes(res), refs: 1}
		return ent, Miss, err
	}

	c.mu.Lock()
	for {
		if ent := c.entries[k]; ent != nil {
			c.hits++
			ent.refs++
			c.ll.MoveToFront(ent.elem)
			c.mu.Unlock()
			return ent, Hit, ent.err
		}
		f := c.flights[k]
		if f == nil {
			break
		}
		f.waiters++
		c.waits++
		c.mu.Unlock()
		select {
		case <-f.done:
			if f.ent == nil && ctx.Err() == nil && isContextErr(f.err) {
				// The leader's request ended, not the decode: retry
				// under this caller's live ctx. Failed flights are never
				// cached, so the retry cannot serve stale data.
				c.mu.Lock()
				continue
			}
			return f.ent, Wait, f.firstError()
		case <-ctx.Done():
			c.mu.Lock()
			if c.flights[k] != f {
				// The flight completed before we could deregister, so
				// a reference was already granted in our name at
				// completion — take the result rather than leak it.
				c.mu.Unlock()
				<-f.done
				return f.ent, Wait, f.firstError()
			}
			f.waiters--
			c.mu.Unlock()
			return nil, Wait, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	c.misses++
	c.mu.Unlock()

	res, err := c.lead(k, f, decode)

	c.mu.Lock()
	delete(c.flights, k)
	if res == nil {
		f.err = err
		c.mu.Unlock()
		close(f.done)
		return nil, Miss, err
	}
	ent := &Entry{
		c:    c,
		key:  k,
		res:  res,
		err:  err,
		size: resultBytes(res),
		// cache residency + the leader + every waiter registered before
		// the flight closed, each of whom owns a pre-granted reference.
		refs: 2 + f.waiters,
	}
	ent.elem = c.ll.PushFront(ent)
	c.entries[k] = ent
	c.bytes += ent.size
	f.ent = ent
	evicted := c.evictOverBudgetLocked(ent)
	c.mu.Unlock()
	close(f.done)
	// Bounded pool-return sweep, not decode work: it must run even (and
	// especially) when ctx is already cancelled, or evictees leak.
	for _, old := range evicted { //hetlint:nopoll
		old.res.Release()
	}
	return ent, Miss, err
}

// lead runs the leader's decode with flight cleanup on panic: the
// flight is failed and removed so waiters get an error instead of
// blocking on a decode that no longer exists, then the panic continues
// to the caller's recovery middleware.
func (c *Cache) lead(k Key, f *flight, decode func() (*core.Result, error)) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			c.mu.Lock()
			delete(c.flights, k)
			f.err = errors.New("rescache: decode panicked")
			c.mu.Unlock()
			close(f.done)
			panic(p)
		}
	}()
	return decode()
}

// NoteBypass counts a request that declined the cache (?cache=bypass).
func (c *Cache) NoteBypass() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.bypasses++
	c.mu.Unlock()
}

// firstError returns the error shared by a finished flight.
func (f *flight) firstError() error { return f.err }

// isContextErr reports whether err is a cancellation or deadline.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// evictOverBudgetLocked evicts least-recently-used entries until the
// budget holds, never evicting keep (the entry just inserted: a result
// larger than the whole budget must still serve its own requesters).
// Entries whose refcount drops to zero are returned for release outside
// the lock — Result.Release walks slab pools and needs no cache state.
func (c *Cache) evictOverBudgetLocked(keep *Entry) []*Entry {
	var free []*Entry
	for c.bytes > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*Entry)
		if ent == keep {
			// keep is by construction at the front; reaching it means
			// it is the only entry left.
			break
		}
		c.ll.Remove(back)
		ent.elem = nil
		delete(c.entries, ent.key)
		c.bytes -= ent.size
		c.evictions++
		ent.refs--
		if ent.refs == 0 {
			free = append(free, ent)
		}
	}
	return free
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Waits:     c.waits,
		Bypasses:  c.bypasses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Capacity:  c.max,
	}
}

// resultBytes is the accounted size of a cached result: its pixels plus
// a fixed overhead for the structs and salvage report.
func resultBytes(res *core.Result) int64 {
	const overhead = 512
	n := int64(overhead)
	if res.Image != nil {
		n += int64(len(res.Image.Pix))
	}
	return n
}

// disabledCache backs entries handed out by a nil cache: a real lock
// for the refcount, no residency, no budget.
var disabledCache = &Cache{}
