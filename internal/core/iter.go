package core

import (
	"sync"

	"rdfindexes/internal/ef"
	"rdfindexes/internal/seq"
	"rdfindexes/internal/trie"
)

// triBatch is the number of triples materialized per refill. It is large
// enough to amortize the per-batch virtual calls and small enough that
// the value and triple buffers stay cache-resident.
const triBatch = 256

// Iterator yields the triples matching a selection pattern, in the order
// of the trie that resolves it, with components restored to canonical
// S-P-O form. Results are produced in blocks: the trie algorithms decode
// whole sibling ranges into an internal buffer via seq.Iterator.NextBatch
// and Next just hands out buffered entries, so steady-state iteration
// performs no allocation and no per-triple indirect call.
//
// An iterator reports its end once: Next returns false, NextBatch
// returns 0, Count returns, Collect returns short of its limit, or
// Close is called. An iterator from a static index's Select is the
// state its index pooled, and that call puts the state back: it may
// serve another goroutine's query at once, so the caller must not touch
// the iterator after its end. A batch shorter than asked for is not the
// end. A caller that stops before the end calls Close; an iterator
// abandoned without it leaves its state to the collector. A
// DynamicSnapshot's iterator over a pending log merges a base iterator
// it owns, and closing it closes the base.
type Iterator struct {
	buf []Triple
	// pos and n are 32-bit, as buf holds at most triBatch triples.
	pos, n int32
	done   bool
	src    blockSource // block source; fill returning 0 means exhausted
	pool   *sync.Pool  // non-nil: src goes back to it at the end
}

// blockSource produces result blocks; the selection algorithm states
// implement it, so wiring one to an Iterator costs no closure allocation.
type blockSource interface {
	fill(out []Triple) int
}

// NewIterator wraps a generator function into an Iterator; used by the
// baseline index implementations outside this package.
func NewIterator(next func() (Triple, bool)) *Iterator {
	st := &funcSource{next: next}
	st.it.src = st
	return &st.it
}

// funcSource is the block source of NewIterator: it fills a block by
// calling the generator, and stops calling it once it reports the end.
type funcSource struct {
	next func() (Triple, bool) // nil once exhausted
	it   Iterator
}

func (st *funcSource) fill(out []Triple) int {
	n := 0
	for st.next != nil && n < len(out) {
		t, ok := st.next()
		if !ok {
			st.next = nil
			break
		}
		out[n] = t
		n++
	}
	return n
}

// EmptyIterator returns an iterator with no results.
func EmptyIterator() *Iterator { return &Iterator{done: true} }

// SingleIterator returns an iterator yielding exactly t.
func SingleIterator(t Triple) *Iterator { return &Iterator{buf: []Triple{t}, n: 1, done: true} }

// reinit prepares an embedded Iterator for a fresh query, keeping its
// grown buffer across reuses.
func (it *Iterator) reinit(src blockSource, pool *sync.Pool) {
	it.pos, it.n = 0, 0
	it.done = false
	it.src = src
	it.pool = pool
}

// drop runs once, in the call that reports the end: a pooled state goes
// back to its pool, and the source is detached so that no further call
// can reach it.
func (it *Iterator) drop() {
	if it.pool == nil {
		return
	}
	pool, src := it.pool, it.src
	it.pool, it.src = nil, nil
	pool.Put(src)
}

// Next returns the next matching triple, or ok=false when exhausted.
//
//rdf:hotpath
func (it *Iterator) Next() (Triple, bool) {
	if it.pos < it.n {
		t := it.buf[it.pos]
		it.pos++
		return t, true
	}
	return it.nextSlow()
}

// nextSlow refills the buffer after the fast path in Next misses.
//
//rdf:hotpath
func (it *Iterator) nextSlow() (Triple, bool) {
	if it.done {
		// Literal iterators are born done with buffered content; their
		// state recycles once that content is drained.
		it.drop()
		return Triple{}, false
	}
	if it.src == nil || it.refill() == 0 {
		it.done = true
		it.drop()
		return Triple{}, false
	}
	it.pos = 1
	return it.buf[0], true
}

// refill grows the buffer geometrically — selective patterns never pay
// for a full block, exhaustive drains quickly reach triBatch — and runs
// the block source once.
func (it *Iterator) refill() int {
	if it.buf == nil {
		it.buf = make([]Triple, 8)
	} else if int(it.n) == len(it.buf) && len(it.buf) < triBatch {
		n := len(it.buf) * 4
		if n > triBatch {
			n = triBatch
		}
		it.buf = make([]Triple, n)
	}
	n := it.src.fill(it.buf)
	it.pos, it.n = 0, int32(n)
	return n
}

// NextBatch fills out with up to len(out) triples and returns how many
// were written; 0, for a non-empty out, iff the iterator has ended.
// Block-producing iterators decode straight into out, so a caller that
// drains through NextBatch with a reusable buffer performs zero
// allocations per triple.
//
//rdf:hotpath
func (it *Iterator) NextBatch(out []Triple) int {
	n := 0
	for n < len(out) {
		if it.pos < it.n {
			c := copy(out[n:], it.buf[it.pos:it.n])
			it.pos += int32(c)
			n += c
			continue
		}
		if it.done {
			if n == 0 {
				it.drop()
			}
			break
		}
		k := 0
		if it.src != nil {
			k = it.src.fill(out[n:])
		}
		if k == 0 {
			it.done = true
			continue
		}
		n += k
	}
	return n
}

// Count drains the iterator and returns the number of triples.
func (it *Iterator) Count() int {
	n := int(it.n - it.pos)
	for it.src != nil && !it.done {
		k := it.refill()
		if k == 0 {
			break
		}
		n += k
	}
	it.Close()
	return n
}

// Close ends the iterator before its end: a pooled state goes back to
// its index's pool at once, so, as after any end, the caller must not
// touch the iterator again; an iterator that pools nothing reads as
// empty from then on. On an iterator that has ended it does nothing.
func (it *Iterator) Close() {
	it.pos = it.n
	it.done = true
	if m, ok := it.src.(*mergeSource); ok {
		m.close()
	}
	it.drop()
}

// Collect drains the iterator into a slice, stopping after limit triples
// if limit >= 0; either way the iterator has ended when it returns.
func (it *Iterator) Collect(limit int) []Triple {
	var out []Triple
	var chunk [triBatch]Triple
	for limit < 0 || len(out) < limit {
		want := len(chunk)
		if limit >= 0 && limit-len(out) < want {
			want = limit - len(out)
		}
		k := it.NextBatch(chunk[:want])
		if k == 0 {
			return out
		}
		out = append(out, chunk[:k]...)
	}
	it.Close()
	return out
}

// restoreBatch writes perm.Restore(a, b, vals[i]) into out[i], hoisting
// the permutation dispatch out of the per-triple loop.
//
//rdf:hotpath
func restoreBatch(perm Perm, a, b ID, vals []uint64, out []Triple) {
	switch perm {
	case PermSPO:
		for i, v := range vals {
			out[i] = Triple{a, b, ID(v)}
		}
	case PermSOP:
		for i, v := range vals {
			out[i] = Triple{a, ID(v), b}
		}
	case PermPSO:
		for i, v := range vals {
			out[i] = Triple{b, a, ID(v)}
		}
	case PermPOS:
		for i, v := range vals {
			out[i] = Triple{ID(v), a, b}
		}
	case PermOSP:
		for i, v := range vals {
			out[i] = Triple{b, ID(v), a}
		}
	case PermOPS:
		for i, v := range vals {
			out[i] = Triple{ID(v), b, a}
		}
	}
}

// valBuf returns a scratch slice of up to k decoded values, growing the
// backing store geometrically so short selections never zero a full
// block.
func valBuf(p *[]uint64, k int) []uint64 {
	if k > triBatch {
		k = triBatch
	}
	if cap(*p) < k {
		n := 8
		for n < k {
			n *= 4
		}
		*p = make([]uint64, n)
	}
	return (*p)[:k]
}

// crossRef is the reference of a cross-compressed permutation (Section
// 3.2): under each key, a sorted list of the IDs the permutation's third
// component takes, stored as one range of a ranged sequence. For a trie
// the keys are its roots and the lists its second level; for PS the
// predicates and their subjects. Where keys are few next to the lists'
// entries, as in 2Tp's POS, whose roots are the predicates, and in PS,
// it keeps each key's range and its prefix-sum base, 16 bytes a key, so
// that unmapping reads neither a pointer nor a base per range. A PEF
// sequence, which unmapping reads at random, gets its select directory.
type crossRef struct {
	nodes seq.Sequence    // the lists
	ptr   seq.Sequence    // where each key's list starts in nodes, then their end
	pef   *ef.Partitioned // nodes' stored values when nodes is PEF-coded; else nil
	spans []refSpan       // per key, then one past the last; nil when keys are many
	keys  int             // the number of keys
	ref   Perm            // the reference: a stored trie, or PermPSO for PS
	first bool            // keyed by the mapped permutation's first component; else its second
}

// refSpan is where a key's list starts in the reference's sequence, and
// its base (seq.Sequence.Base).
type refSpan struct {
	begin int
	base  uint64
}

// refSpanRatio bounds the spans kept to one per this many listed IDs: at
// most 2 bits an ID.
const refSpanRatio = 64

// newCrossRef returns the reference of m: lists in nodes, one a key,
// whose starts and end ptr holds (a trie's first-level pointers, PS's
// pointers).
func newCrossRef(m ccMap, nodes, ptr seq.Sequence) *crossRef {
	keys := ptr.Len() - 1
	r := &crossRef{nodes: nodes, ptr: ptr, keys: keys, ref: m.ref, first: m.first}
	r.pef = seq.IndexedPEF(nodes)
	if keys*refSpanRatio <= nodes.Len() {
		r.spans = make([]refSpan, keys+1)
		it := ptr.Iter(0, keys+1)
		for k := range r.spans {
			begin, _ := it.Next()
			r.spans[k].begin = int(begin)
			if k < keys {
				r.spans[k].base = nodes.Base(int(begin))
			}
		}
	}
	return r
}

// name is the reference as a layout's row names it: "PS" or a
// permutation.
func (r *crossRef) name() string {
	if r.ref == PermPSO {
		return "PS"
	}
	return r.ref.String()
}

// key returns the key of the list the ranks under (a, b) are among.
//
//rdf:hotpath
func (r *crossRef) key(a, b ID) ID {
	if r.first {
		return a
	}
	return b
}

// span returns the positions [begin, end) of key's list in the
// reference's sequence and their base.
func (r *crossRef) span(key ID) (begin, end int, base uint64) {
	if r.spans == nil {
		if int(key) >= r.keys {
			return 0, 0, 0
		}
		b, e := r.ptr.At2(0, int(key))
		begin, end = int(b), int(e)
		return begin, end, r.nodes.Base(begin)
	}
	if int(key)+1 >= len(r.spans) {
		return 0, 0, 0
	}
	s := r.spans[key : key+2]
	return s[0].begin, s[1].begin, s[0].base
}

// rank is the map function of Fig. 4: c's position in key's list, or
// false when c is not in it.
func (r *crossRef) rank(key, c ID) (uint64, bool) {
	begin, end, base := r.span(key)
	pos, v, ok := r.geq(begin, end, base, c)
	if !ok || v != uint64(c) {
		return 0, false
	}
	return uint64(pos - begin), true
}

// geq returns the position and ID of the first entry at or above c in
// the list at positions [begin, end), whose base is base, or false when
// every entry is smaller.
func (r *crossRef) geq(begin, end int, base uint64, c ID) (int, uint64, bool) {
	if r.pef == nil {
		return r.nodes.FindGEQ(begin, end, uint64(c))
	}
	// The stored values before begin are at most base, so the search
	// may start at begin's partition; it returns a position before
	// begin only on a value equal to base+c, which begin then holds.
	pos, v, ok := r.pef.NextGEQFrom(begin, base+uint64(c))
	if pos < begin {
		pos = begin
	}
	return pos, v - base, ok && pos < end
}

// at returns the stored value at position i of the reference's
// sequence: the ID plus its list's base.
//
//rdf:hotpath
func (r *crossRef) at(i int) uint64 {
	if r.pef != nil {
		return r.pef.Access(i)
	}
	return r.nodes.At(0, i)
}

// refRoot turns ranks in one key's list of a reference back into the IDs
// they stand for (Fig. 4). It keeps the key's span across calls, so the
// ranges of one key, and a join's inner steps, which keep their key,
// look it up once; for a reference keyed by the first component (PS,
// keyed by POS's predicates) that keeps no spans, it remembers the spans
// of the keys it saw last in a small cache. An ID is one
// random access: the reference's sequence read as one range from
// position 0 gives stored values, and the list's base is taken off. A
// walk that will unmap most of a list, as one draining a whole
// predicate of 2Tp's POS does, decodes the list once instead (load), and
// an ID is then an index into it.
type refRoot struct {
	ref   *crossRef    // nil: the level is not cross-compressed
	it    seq.Iterator // decodes lists for load
	ids   []uint64     // the loaded key's list, when decoded is set
	seen  *spanCache   // spans of recent keys, when ref is keyed by the first component and keeps none
	begin int          // where the loaded key's list starts
	end   int          // and ends
	base  uint64       // its base
	root  ID           // the loaded key; Wildcard when none is
	// decoded is set while ids holds the loaded key's list.
	decoded bool
}

// spanCache holds the spans of up to spanCacheSize keys of a reference,
// each in the slot its key hashes to. Patterns drawn from a dataset's
// triples and a join's steps come back to its frequent predicates, which
// then cost one slot read instead of three random accesses.
type spanCache [spanCacheSize]struct {
	key        ID
	begin, end int
	base       uint64
}

const spanCacheSize = 64

// use points at reference ref, dropping what was loaded for another.
func (c *refRoot) use(ref *crossRef) {
	if c.ref != ref {
		*c = refRoot{ref: ref, root: Wildcard}
	}
}

// seek loads the span of key, unless it is loaded already.
func (c *refRoot) seek(key ID) {
	if c.root != key {
		c.fetch(key)
	}
}

// fetch loads the span of key.
func (c *refRoot) fetch(key ID) {
	c.root, c.decoded = key, false
	if c.ref.spans != nil || !c.ref.first {
		c.begin, c.end, c.base = c.ref.span(key)
		return
	}
	if c.seen == nil {
		c.seen = new(spanCache)
		for i := range c.seen {
			c.seen[i].key = Wildcard
		}
	}
	e := &c.seen[key%spanCacheSize]
	if e.key != key {
		e.key = key
		e.begin, e.end, e.base = c.ref.span(key)
	}
	c.begin, c.end, c.base = e.begin, e.end, e.base
}

// load seeks key and decodes its list, unless it is decoded already.
func (c *refRoot) load(key ID) {
	c.seek(key)
	if c.decoded {
		return
	}
	if c.it == nil {
		c.it = c.ref.nodes.Iter(c.begin, c.end)
	} else {
		c.it.Reset(c.begin, c.begin, c.end)
	}
	n := c.end - c.begin
	if cap(c.ids) < n {
		c.ids = make([]uint64, n)
	}
	c.ids = c.ids[:n]
	for k := 0; k < n; {
		m := c.it.NextBatch(c.ids[k:])
		if m == 0 {
			c.ids = c.ids[:k]
			break
		}
		k += m
	}
	c.decoded = true
}

// id returns the ID that rank r of the loaded key stands for.
//
//rdf:hotpath
func (c *refRoot) id(r uint64) uint64 {
	return c.ref.at(c.begin+int(r)) - c.base
}

// unmap rewrites ranks in key's list in place into the IDs they stand
// for: from the decoded list when key's is loaded, else one random
// access each.
//
//rdf:hotpath
func (c *refRoot) unmap(key ID, vals []uint64) {
	if c.decoded && c.root == key {
		for i, r := range vals {
			vals[i] = c.ids[r]
		}
		return
	}
	c.seek(key)
	for i, r := range vals {
		vals[i] = c.id(r)
	}
}

// rankGEQ returns the rank of the first ID of the loaded key's list at or
// above id, or false when every ID is smaller.
func (c *refRoot) rankGEQ(id ID) (uint64, bool) {
	pos, _, ok := c.ref.geq(c.begin, c.end, c.base, id)
	return uint64(pos - c.begin), ok
}

// lookup resolves the fully-specified pattern on the trie of perm: two
// find operations (Section 3.1). On a cross-compressed trie the third
// component is first mapped to its rank.
func (x *staticIndex) lookup(perm Perm, tr Triple) *Iterator {
	t, ref := x.tries[perm], x.xref[perm]
	a, b, c := perm.Apply(tr)
	b1, e1 := t.RootRange(uint32(a))
	j := t.FindChild1(b1, e1, uint32(b))
	if j < 0 {
		return x.empty()
	}
	v := uint64(c)
	if ref != nil {
		var ok bool
		if v, ok = ref.rank(ref.key(a, b), c); !ok {
			return x.empty()
		}
	}
	b2, e2 := t.ChildRange(j)
	if t.FindChild2(b2, e2, uint32(v)) < 0 {
		return x.empty()
	}
	return x.single(tr)
}

// walkState drains third-level sibling ranges of one trie in blocks:
// the step that ends select with one or two components fixed (Fig. 2),
// the full scan, the inverted algorithms of 2Tp and 2To (Section 3.3)
// and the range query (Section 3.1). Only the choice of the next range
// differs between them:
//
//   - the children walk visits roots [root, end) and every child of
//     each, except that of the first root it visits only a given run
//     of level-1 positions. Sibling ranges of consecutive children and
//     roots are contiguous, so one level-1 node cursor, one pointer
//     cursor (the pointer closing one range opens the next) and one
//     third-level cursor are repositioned with the cheap contiguous
//     Reset instead of paying a random access per range;
//   - the find walk visits roots [root, end), or those of a PS subject
//     list (2To), and in each the one child b that FindChild1 finds.
//
// Either way the range drained holds the completions of (a, b).
type walkState struct {
	t      *trie.Trie
	ps     *PS          // non-nil: a find walk over ps's subject list
	nodes2 seq.Sequence // t's third level
	it2    seq.Iterator // find walk: the third-level cursor, reset per range
	raw    seq.Iterator // children walk: the third level's stored values, across ranges
	it1    seq.Iterator // children walk: t's level-1 node cursor; ps walk: the subject-list cursor
	ptrIt  seq.Iterator // children walk: t's level-1 pointer cursor
	it     Iterator
	vals   []uint64
	blk    []uint64 // children walk: stored values raw decoded, blk[bpos:bn] not yet drained
	ranks  refRoot  // unmaps t's third level when it is cross-compressed

	// The scalars come last: the garbage collector scans an object
	// only up to its last pointer.
	bpos, bn  int
	blkLen    int    // children walk: how many values the next block decodes
	base      uint64 // children walk: what the open range's stored values exceed its values by
	carry     bool   // the third level's ranges are prefix-summed (seq.PrefixSummed)
	perm      Perm
	find      bool // find walk; otherwise children walk
	block     bool // children walk: decode blocks of stored values (drain), not each range
	decode    bool // children walk: load each root's list of ranks.ref
	one       bool // the open range is one element, oneVal, not yet read
	oneVal    uint64
	a, b      ID     // first two components of the range being drained
	left      uint32 // elements remaining in the range; a pair has fewer than 2^32
	root, end ID     // roots still to visit
	prev      int    // children walk: start of the next third-level range
	vals0     [8]uint64
}

//rdf:hotpath
func (st *walkState) fill(out []Triple) int {
	n := 0
	for n < len(out) {
		if st.left == 0 && !st.advance() {
			// Marking the iterator done spares it the empty fill that
			// would otherwise report the end.
			st.it.done = true
			break
		}
		k := len(out) - n
		if k > int(st.left) {
			k = int(st.left)
		}
		vals := valBuf(&st.vals, k)
		var m int
		switch {
		case st.block:
			m = st.drain(vals)
		case st.one:
			vals[0], m, st.one = st.oneVal, 1, false
		default:
			m = st.it2.NextBatch(vals)
		}
		if m == 0 {
			st.left = 0
			continue
		}
		st.left -= uint32(m)
		if ref := st.ranks.ref; ref != nil {
			st.ranks.unmap(ref.key(st.a, st.b), vals[:m])
		}
		restoreBatch(st.perm, st.a, st.b, vals[:m], out[n:n+m])
		n += m
	}
	return n
}

// drain takes the next values of a children walk's open range from the
// block of stored values, decoding the next block when it is empty. The
// ranges of a children walk are contiguous, so one cursor decodes them a
// block at a time across ranges, instead of one short batch per range;
// a range's values are its stored values less its base, the last
// stored value of the range before it. Blocks grow geometrically, as the
// Iterator's buffer does, so a walk decodes little past its end.
//
//rdf:hotpath
func (st *walkState) drain(vals []uint64) int {
	if st.bpos == st.bn {
		st.bn, st.bpos = st.raw.NextBatch(st.blk[:st.blkLen]), 0
		if st.bn == 0 {
			return 0
		}
		st.blkLen = min(4*st.blkLen, len(st.blk))
	}
	m := copy(vals, st.blk[st.bpos:st.bn])
	st.bpos += m
	if base := st.base; base != 0 {
		for i := range vals[:m] {
			vals[i] -= base
		}
	}
	if st.carry && m == int(st.left) {
		st.base = st.blk[st.bpos-1] // the range ends: the next one's base
	}
	return m
}

// advance opens the walk's next third-level range, or reports that the
// walk is over; once over it stays over.
//
//rdf:hotpath
func (st *walkState) advance() bool {
	if st.find {
		return st.nextFound()
	}
	return st.nextChild()
}

//rdf:hotpath
func (st *walkState) nextChild() bool {
	for {
		if bv, ok := st.it1.Next(); ok {
			endv, _ := st.ptrIt.Next()
			if st.block {
				st.b, st.left = ID(bv), uint32(int(endv)-st.prev)
			} else {
				st.open(st.a, ID(bv), st.prev, int(endv))
			}
			st.prev = int(endv)
			return true
		}
		if st.root >= st.end {
			return false
		}
		b1, e1 := st.t.RootRange(uint32(st.root))
		st.a = st.root
		st.root++
		if b1 < e1 {
			st.it1.Reset(b1, b1, e1)
			if st.decode {
				st.ranks.load(st.a)
			}
		}
	}
}

//rdf:hotpath
func (st *walkState) nextFound() bool {
	for {
		r := st.root
		if st.ps != nil {
			v, ok := st.it1.Next()
			if !ok {
				return false
			}
			r = ID(v)
		} else {
			if st.root >= st.end {
				return false
			}
			st.root++
		}
		b1, e1 := st.t.RootRange(uint32(r))
		if j := st.t.FindChild1(b1, e1, uint32(st.b)); j >= 0 {
			b2, e2 := st.t.ChildRange(j)
			st.openFound(r, st.b, b2, e2)
			return true
		}
	}
}

// openFound points a find walk at the range [b2, e2) holding the
// completions of (a, b). A range of one element, the usual one of ?PO
// and ??O, is read with one random access (seq.Sequence.First) rather
// than by positioning the third-level cursor: the ranges of a find walk
// are not contiguous, so the cursor carries nothing from one to the next.
func (st *walkState) openFound(a, b ID, b2, e2 int) {
	if e2-b2 != 1 {
		st.open(a, b, b2, e2)
		return
	}
	st.a, st.b, st.left = a, b, 1
	st.one, st.oneVal = true, st.nodes2.First(b2)
}

// open points the third-level cursor at the range [b2, e2) holding the
// completions of (a, b).
func (st *walkState) open(a, b ID, b2, e2 int) {
	st.a, st.b, st.left = a, b, uint32(e2-b2)
	st.one = false
	if st.it2 == nil {
		st.it2 = st.t.Iter2(b2, e2)
	} else {
		st.it2.Reset(b2, b2, e2)
	}
}

// walkChildren starts a children walk over roots [root, end), from
// level-1 positions [j, e) of root, whose children start at b1. With
// decode set, the walk decodes each root's list of the reference its
// third level ranks against, which must be keyed by the root. A walk
// over every root (a scan) decodes its third level in blocks across
// ranges (drain); a walk over one root reads each range as it opens it,
// which measured faster for S?? over a subject's few predicates.
func (st *walkState) walkChildren(root, end ID, b1, j, e int, decode bool) *Iterator {
	st.find, st.decode = false, decode
	st.block = end > root+1
	st.a, st.root, st.end = root, root+1, end
	if decode {
		st.ranks.load(root)
	}
	ptrEnd := st.t.NumInternal() + 1
	if st.it1 == nil {
		st.it1 = st.t.Iter1From(b1, j, e)
		st.ptrIt = st.t.Ptr1Iter(j, ptrEnd)
	} else {
		st.it1.Reset(b1, j, e)
		st.ptrIt.Reset(0, j, ptrEnd)
	}
	first, _ := st.ptrIt.Next()
	st.prev = int(first)
	if !st.block {
		return &st.it
	}
	// Read as one range from 0, the third level yields stored values; a
	// prefix-summed first range's base is the value before it.
	from := st.prev
	if st.carry && from > 0 {
		from--
	}
	if st.raw == nil {
		st.raw = st.nodes2.IterFrom(0, from, st.nodes2.Len())
		st.blk = make([]uint64, triBatch)
	} else {
		st.raw.Reset(0, from, st.nodes2.Len())
	}
	st.base, st.bpos, st.bn, st.blkLen = 0, 0, 0, 8
	if from < st.prev {
		st.base, _ = st.raw.Next()
	}
	return &st.it
}

// walkFind starts a find walk for child b over the counted roots
// [root, end), or over the subject list of the state's PS.
func (st *walkState) walkFind(root, end, b ID) *Iterator {
	st.find, st.block = true, false
	st.root, st.end, st.b = root, end, b
	return &st.it
}

// selectTwo implements the select algorithm of Fig. 2 with the first two
// components fixed: one find on the second level, then a block-decoded
// scan of the completions on the third.
func (x *staticIndex) selectTwo(perm Perm, a, b ID) *Iterator {
	t := x.tries[perm]
	b1, e1 := t.RootRange(uint32(a))
	j := t.FindChild1(b1, e1, uint32(b))
	if j < 0 {
		return x.empty()
	}
	b2, e2 := t.ChildRange(j)
	st := x.getWalk(&x.walks[perm], perm, nil)
	st.openFound(a, b, b2, e2)
	return st.walkFind(0, 0, b) // no roots left: the range opened is the only one
}

// selectOne implements the select algorithm of Fig. 2 with only the first
// component fixed: scan the children of a and their completions. Every
// entry of a's list in a reference keyed by a has a triple under a, so
// such a list is decoded once rather than read at random per triple.
func (x *staticIndex) selectOne(perm Perm, a ID) *Iterator {
	b1, e1 := x.tries[perm].RootRange(uint32(a))
	if b1 >= e1 {
		return x.empty()
	}
	return x.getWalk(&x.walks[perm], perm, nil).walkChildren(a, a+1, b1, b1, e1, x.keyedByRoot(perm))
}

// keyedByRoot reports whether perm's third level ranks against lists
// keyed by its roots (2Tp's POS against PS).
func (x *staticIndex) keyedByRoot(perm Perm) bool {
	ref := x.xref[perm]
	return ref != nil && ref.first
}

// scanAll enumerates the whole trie of perm (the ??? pattern) from its
// first non-empty root.
func (x *staticIndex) scanAll(perm Perm) *Iterator {
	t := x.tries[perm]
	n := ID(t.NumRoots())
	for r := ID(0); r < n; r++ {
		if b1, e1 := t.RootRange(uint32(r)); b1 < e1 {
			return x.getWalk(&x.walks[perm], perm, nil).walkChildren(r, n, b1, b1, e1, x.keyedByRoot(perm))
		}
	}
	return x.empty()
}

// invertedOnPOS resolves ??O on the POS permutation (the 2Tp fallback
// of Section 3.3): |P| find operations locate o among each predicate's
// children. A (p, o) range holds few subjects, so their ranks in p's PS
// list are unmapped one random access each.
func (x *staticIndex) invertedOnPOS(o ID) *Iterator {
	n := ID(x.tries[PermPOS].NumRoots())
	return x.getWalk(&x.walks[PermPOS], PermPOS, nil).walkFind(0, n, o)
}

// invertedOnPS resolves ?P? for 2To (Section 3.3): walk the PS
// structure's subject list of p and find p among each subject's children
// on SPO. Every subject in the list has a triple with predicate p, so
// each find succeeds.
func (x *staticIndex) invertedOnPS(p ID) *Iterator {
	b, e := x.ps.Range(p)
	if b >= e {
		return x.empty()
	}
	st := x.getWalk(&x.psWalk, PermSPO, x.ps)
	if st.it1 != nil {
		st.it1.Reset(b, b, e)
	} else {
		st.it1 = x.ps.Iter(b, e)
	}
	return st.walkFind(0, 0, p)
}

// enumerateState implements the algorithm of Fig. 5, resolving S?O
// directly on the SPO permutation: for each predicate child of s, one
// find among its objects. The subject's few children are walked with
// sequential node and pointer iterators, which is where the algorithm's
// advantage over percolating the OSP trie comes from (Section 3.3).
//
// On a cross-compressed SPO (2Tp) a predicate's objects are ranks among
// its objects in POS. They are read through one third-level cursor,
// whose consecutive ranges need no repositioning, and unmapped in
// ascending order until one reaches o; ranking o among all the
// predicate's objects instead, and finding the rank, measured no faster.
type enumerateState struct {
	spo          *trie.Trie
	s, o         ID
	ptrIt        seq.Iterator
	it1          seq.Iterator // cross-compressed: the predicates of s
	it2          seq.Iterator // cross-compressed: their ranks
	ranks        refRoot
	prev         int
	pos1, b1, e1 int
	it           Iterator
}

//rdf:hotpath
func (st *enumerateState) fill(out []Triple) int {
	n := 0
	for st.pos1 < st.e1 && n < len(out) {
		endv, _ := st.ptrIt.Next()
		jb, je := st.prev, int(endv)
		st.prev = je
		j := st.pos1
		st.pos1++
		if st.ranks.ref != nil {
			p, _ := st.it1.Next()
			if st.findMapped(ID(p), jb, je) {
				out[n] = Triple{st.s, ID(p), st.o}
				n++
			}
			continue
		}
		if st.spo.FindChild2(jb, je, uint32(st.o)) >= 0 {
			// Fetch the predicate only for matches (the pseudocode of
			// Fig. 5 reads levels[1].nodes[i] per iteration; deferring
			// it to hits avoids decoding the node sequence at all for
			// the misses, which dominate).
			out[n] = Triple{st.s, ID(st.spo.Node1At(st.b1, j)), st.o}
			n++
		}
	}
	return n
}

// findMapped reports whether o is among the objects of predicate p, the
// ranks at third-level positions [jb, je), which it reads to the end.
//
//rdf:hotpath
func (st *enumerateState) findMapped(p ID, jb, je int) bool {
	st.it2.Reset(jb, jb, je)
	st.ranks.seek(p)
	found, passed := false, false
	for {
		r, ok := st.it2.Next()
		if !ok {
			return found
		}
		if !passed {
			v := st.ranks.id(r)
			found, passed = v == uint64(st.o), v >= uint64(st.o)
		}
	}
}

func (x *staticIndex) enumerate(s, o ID) *Iterator {
	spo := x.tries[PermSPO]
	b1, e1 := spo.RootRange(uint32(s))
	if b1 >= e1 {
		return x.empty()
	}
	st := x.getEnumerate()
	st.s, st.o, st.b1, st.e1, st.pos1 = s, o, b1, e1, b1
	if st.ptrIt == nil {
		st.ptrIt = spo.Ptr1Iter(b1, e1+1)
	} else {
		st.ptrIt.Reset(0, b1, e1+1)
	}
	first, _ := st.ptrIt.Next()
	st.prev = int(first)
	if st.ranks.ref != nil {
		if st.it1 == nil {
			st.it1 = spo.Iter1From(b1, b1, e1)
			st.it2 = spo.Iter2(st.prev, st.prev)
		} else {
			st.it1.Reset(b1, b1, e1)
		}
	}
	return &st.it
}

// filterState yields only the triples of inner satisfying keep.
type filterState struct {
	inner *Iterator
	keep  func(Triple) bool
	it    Iterator
	tmp   [triBatch]Triple
}

//rdf:hotpath
func (st *filterState) fill(out []Triple) int {
	for {
		k := len(out)
		if k > len(st.tmp) {
			k = len(st.tmp)
		}
		m := st.inner.NextBatch(st.tmp[:k])
		if m == 0 {
			return 0
		}
		n := 0
		for _, t := range st.tmp[:m] {
			if st.keep(t) {
				out[n] = t
				n++
			}
		}
		if n > 0 {
			return n
		}
	}
}

// Filter yields only the triples of inner satisfying keep.
func Filter(inner *Iterator, keep func(Triple) bool) *Iterator {
	st := &filterState{inner: inner, keep: keep}
	st.it.src = st
	return &st.it
}
