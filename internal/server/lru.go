package server

import (
	"container/list"
	"sync"
)

// lruCache is a mutex-guarded LRU map used for both the result cache
// (normalized query text -> serialized response body) and the plan
// cache (normalized BGP text -> evaluation order). Entries are evicted
// least-recently-used once cap is exceeded; a zero or negative cap
// disables the cache entirely (every Get misses, every Put is dropped).
type lruCache[V any] struct {
	mu           sync.Mutex
	cap          int
	size         func(V) int // bytes one value holds; nil: not tracked
	bytes        int         // sum of size over the cached values
	ll           *list.List  // front = most recently used
	m            map[string]*list.Element
	hits, misses uint64
	flushes      uint64 // Clear calls: one per changing write (generation bump)
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int, size func(V) int) *lruCache[V] {
	return &lruCache[V]{cap: capacity, size: size, ll: list.New(), m: map[string]*list.Element{}}
}

// held is the byte size of one value (0 when sizes are not tracked).
func (c *lruCache[V]) held(v V) int {
	if c.size == nil {
		return 0
	}
	return c.size(v)
}

// Get returns the cached value and marks it most recently used.
func (c *lruCache[V]) Get(key string) (V, bool) {
	var zero V
	if c == nil || c.cap <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses++
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put inserts or refreshes a value, evicting the LRU entry when full.
func (c *lruCache[V]) Put(key string, val V) {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes += c.held(val)
	if el, ok := c.m[key]; ok {
		e := el.Value.(*lruEntry[V])
		c.bytes -= c.held(e.val)
		e.val = val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		e := c.ll.Remove(c.ll.Back()).(*lruEntry[V])
		c.bytes -= c.held(e.val)
		delete(c.m, e.key)
	}
}

// Clear drops every cached entry (write invalidation); the hit/miss
// counters survive.
func (c *lruCache[V]) Clear() {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
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
	return c.ll.Len()
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
