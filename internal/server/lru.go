package server

import "sync"

// lruCache is a mutex-guarded LRU map used for both the result cache
// (normalized query text -> serialized response body) and the plan
// cache (normalized BGP text -> evaluation order). Entries are evicted
// least-recently-used once cap is exceeded; a zero or negative cap
// disables the cache entirely (every Get misses, every Put is dropped).
//
// Entries live in a slice of at most cap slots, linked into recency
// order by index, and an evicted entry's slot takes the new one: a Put
// into a full cache allocates nothing of its own.
type lruCache[V any] struct {
	mu           sync.Mutex
	cap          int
	size         func(V) int // bytes one value holds; nil: not tracked
	bytes        int         // sum of size over the cached values
	slots        []lruSlot[V]
	head         int32 // most recently used slot; -1 when empty
	m            map[string]int32
	hits, misses uint64
	flushes      uint64 // Clear calls: one per changing write (generation bump)
}

// lruSlot is one entry. prev and next link the slots into a ring in
// recency order: next runs from the most recently used towards the
// least, whose next is the head again.
type lruSlot[V any] struct {
	key        string
	val        V
	prev, next int32
}

func newLRU[V any](capacity int, size func(V) int) *lruCache[V] {
	return &lruCache[V]{cap: capacity, size: size, head: -1, m: map[string]int32{}}
}

// held is the byte size of one value (0 when sizes are not tracked).
func (c *lruCache[V]) held(v V) int {
	if c.size == nil {
		return 0
	}
	return c.size(v)
}

// unlink takes slot i out of the ring.
func (c *lruCache[V]) unlink(i int32) {
	s := &c.slots[i]
	if s.next == i {
		c.head = -1
		return
	}
	c.slots[s.prev].next, c.slots[s.next].prev = s.next, s.prev
	if c.head == i {
		c.head = s.next
	}
}

// pushFront links slot i in as the most recently used.
func (c *lruCache[V]) pushFront(i int32) {
	s := &c.slots[i]
	if c.head < 0 {
		s.prev, s.next = i, i
	} else {
		h := &c.slots[c.head]
		s.prev, s.next = h.prev, c.head
		c.slots[h.prev].next = i
		h.prev = i
	}
	c.head = i
}

// Get returns the cached value and marks it most recently used.
func (c *lruCache[V]) Get(key string) (V, bool) {
	var zero V
	if c == nil || c.cap <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.m[key]
	if !ok {
		c.misses++
		return zero, false
	}
	c.hits++
	if i != c.head {
		c.unlink(i)
		c.pushFront(i)
	}
	return c.slots[i].val, true
}

// Put inserts or refreshes a value, evicting the LRU entry when full.
func (c *lruCache[V]) Put(key string, val V) {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes += c.held(val)
	i, ok := c.m[key]
	switch {
	case ok:
		c.bytes -= c.held(c.slots[i].val)
		c.unlink(i)
	case len(c.slots) < c.cap:
		i = int32(len(c.slots))
		c.slots = append(c.slots, lruSlot[V]{key: key})
		c.m[key] = i
	default:
		i = c.slots[c.head].prev // the least recently used
		old := &c.slots[i]
		c.bytes -= c.held(old.val)
		delete(c.m, old.key)
		old.key = key
		c.m[key] = i
		c.unlink(i)
	}
	c.slots[i].val = val
	c.pushFront(i)
}

// Clear drops every cached entry (write invalidation); the hit/miss
// counters survive.
func (c *lruCache[V]) Clear() {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.slots) // release the values for collection
	c.slots = c.slots[:0]
	c.head = -1
	clear(c.m)
	c.bytes = 0
	c.flushes++
}

// Len returns the number of cached entries.
func (c *lruCache[V]) Len() int {
	if c == nil || c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// Bytes returns the bytes the cached values hold, by the cache's size
// function.
func (c *lruCache[V]) Bytes() int {
	if c == nil || c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Counters returns the hit/miss totals.
func (c *lruCache[V]) Counters() (hits, misses uint64) {
	if c == nil || c.cap <= 0 {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Flushes returns the number of Clear calls — per-generation flushes
// under write invalidation.
func (c *lruCache[V]) Flushes() uint64 {
	if c == nil || c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushes
}
