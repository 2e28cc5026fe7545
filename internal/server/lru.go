package server

import (
	"sync"

	"rdfindexes/internal/core"
)

// lruCache is the result cache: a mutex-guarded LRU map from a
// normalized query key to its answer as dictionary IDs. Entries are
// evicted least-recently-used once cap is exceeded; a zero or negative
// cap disables the cache entirely (every Get misses, every Put is
// dropped).
//
// Entries live in a slice of at most cap slots, linked into recency
// order by index, and an evicted entry's slot takes the new one: a Put
// into a full cache allocates nothing of its own.
type lruCache struct {
	mu           sync.Mutex
	cap          int
	bytes        int // sum of size over the cached answers
	slots        []lruSlot
	head         int32 // most recently used slot; -1 when empty
	m            map[string]int32
	hits, misses uint64
	flushes      uint64 // Clear calls: one per changing write (generation bump)
}

// lruSlot is one entry. prev and next link the slots into a ring in
// recency order: next runs from the most recently used towards the
// least, whose next is the head again.
type lruSlot struct {
	key        string
	ans        answer
	prev, next int32
}

// answer is a cached result set in the form the index answers in: the
// ID space of each column (a compiled plan's Roles), the rows' IDs back
// to back and the row count, which the IDs alone do not give for a
// projection without columns. It is rendered anew for every hit, in
// whichever format and encoding that hit asks for. The column names are
// not kept: the key spells them, so a hit takes them from its own parsed
// query, and a cached answer never holds on to the text of the query
// that filled it.
type answer struct {
	roles []core.Role
	ids   []core.ID
	rows  int
}

// size is what the cache counts of an answer: the bytes of its ID rows.
func (a answer) size() int { return 4 * len(a.ids) } // a core.ID is 4 bytes

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, head: -1, m: map[string]int32{}}
}

// unlink takes slot i out of the ring.
func (c *lruCache) unlink(i int32) {
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
func (c *lruCache) pushFront(i int32) {
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

// Get returns the cached answer and marks it most recently used. The
// answer's slices are shared and must not be written.
func (c *lruCache) Get(key string) (answer, bool) {
	if c == nil || c.cap <= 0 {
		return answer{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.m[key]
	if !ok {
		c.misses++
		return answer{}, false
	}
	c.hits++
	if i != c.head {
		c.unlink(i)
		c.pushFront(i)
	}
	return c.slots[i].ans, true
}

// Put inserts or refreshes an answer, evicting the LRU entry when full.
// The cache keeps a's slices; the caller must not write them afterwards.
func (c *lruCache) Put(key string, a answer) {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes += a.size()
	i, ok := c.m[key]
	switch {
	case ok:
		c.bytes -= c.slots[i].ans.size()
		c.unlink(i)
	case len(c.slots) < c.cap:
		i = int32(len(c.slots))
		c.slots = append(c.slots, lruSlot{key: key})
		c.m[key] = i
	default:
		i = c.slots[c.head].prev // the least recently used
		old := &c.slots[i]
		c.bytes -= old.ans.size()
		delete(c.m, old.key)
		old.key = key
		c.m[key] = i
		c.unlink(i)
	}
	c.slots[i].ans = a
	c.pushFront(i)
}

// Clear drops every cached entry (write invalidation); the hit/miss
// counters survive.
func (c *lruCache) Clear() {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.slots) // release the answers for collection
	c.slots = c.slots[:0]
	c.head = -1
	clear(c.m)
	c.bytes = 0
	c.flushes++
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	if c == nil || c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// Bytes returns the bytes of the cached ID rows.
func (c *lruCache) Bytes() int {
	if c == nil || c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Counters returns the hit/miss totals.
func (c *lruCache) Counters() (hits, misses uint64) {
	if c == nil || c.cap <= 0 {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Flushes returns the number of Clear calls — per-generation flushes
// under write invalidation.
func (c *lruCache) Flushes() uint64 {
	if c == nil || c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushes
}
