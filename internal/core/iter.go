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
// it owns: closing it ends the merge, but the base's state is left to
// the collector.
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
// log merge of DynamicSnapshot and by the baseline index implementations
// outside this package.
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

// crossRef is the reference trie of a cross-compressed permutation
// (Section 3.2). Where its roots are few next to their children, as in
// 2Tp's POS, whose roots are the predicates, it keeps each root's range
// of children and their prefix-sum base, 16 bytes a root, so that
// unmapping reads neither a pointer nor a base per range. A PEF second
// level, which unmapping reads at random, gets its select directory.
type crossRef struct {
	t     *trie.Trie
	nodes seq.Sequence    // t's second level
	pef   *ef.Partitioned // nodes' stored values when nodes is PEF-coded; else nil
	spans []refSpan       // per root, then one past the last; nil when roots are many
}

// refSpan is where a root's children start in the reference's second
// level, and their base (seq.Sequence.Base).
type refSpan struct {
	begin int
	base  uint64
}

// refSpanRatio bounds the spans kept to one per this many second-level
// nodes: at most 2 bits a node.
const refSpanRatio = 64

func newCrossRef(t *trie.Trie) *crossRef {
	r := &crossRef{t: t, nodes: t.Nodes(1)}
	r.pef = seq.IndexedPEF(r.nodes)
	if n := t.NumRoots(); n*refSpanRatio <= t.NumInternal() {
		r.spans = make([]refSpan, n+1)
		for a := range r.spans[:n] {
			begin, _ := t.RootRange(uint32(a))
			r.spans[a] = refSpan{begin, r.nodes.Base(begin)}
		}
		r.spans[n].begin = t.NumInternal()
	}
	return r
}

// span returns the positions [begin, end) of root's children in the
// reference's second level and their base.
func (r *crossRef) span(root ID) (begin, end int, base uint64) {
	if r.spans == nil {
		begin, end = r.t.RootRange(uint32(root))
		return begin, end, r.nodes.Base(begin)
	}
	if int(root)+1 >= len(r.spans) {
		return 0, 0, 0
	}
	s := r.spans[root : root+2]
	return s[0].begin, s[1].begin, s[0].base
}

// rank is the map function of Fig. 4: c's position among the children
// of root b in the reference, or false when c is not one.
func (r *crossRef) rank(b, c ID) (uint64, bool) {
	begin, end, base := r.span(b)
	pos, v, ok := r.geq(begin, end, base, c)
	if !ok || v != uint64(c) {
		return 0, false
	}
	return uint64(pos - begin), true
}

// geq returns the position and ID of the first child at or above c
// among the children [begin, end) of a root whose base is base, or
// false when every child is smaller.
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

// at returns the stored value at position i of the reference's second
// level: the child's ID plus its root's base.
//
//rdf:hotpath
func (r *crossRef) at(i int) uint64 {
	if r.pef != nil {
		return r.pef.Access(i)
	}
	return r.nodes.At(0, i)
}

// refRoot turns ranks among the children of one root of a reference
// back into the IDs they stand for (Fig. 4). It keeps the root's span
// across calls, so the ranges of one predicate, and a join's inner
// steps, which keep their predicate, look it up once. An ID is one
// random access: the reference's second level read as one range from
// position 0 gives stored values, and the root's base is taken off.
type refRoot struct {
	ref   *crossRef // nil: the level is not cross-compressed
	begin int       // where the loaded root's children start
	base  uint64    // their base
	root  ID        // the loaded root; Wildcard when none is
}

// use points at reference ref, dropping what was loaded for another.
func (c *refRoot) use(ref *crossRef) {
	if c.ref != ref {
		*c = refRoot{ref: ref, root: Wildcard}
	}
}

// seek loads the span of root, unless it is loaded already.
func (c *refRoot) seek(root ID) {
	if c.root != root {
		c.root = root
		c.begin, _, c.base = c.ref.span(root)
	}
}

// id returns the ID that rank r of the loaded root stands for.
//
//rdf:hotpath
func (c *refRoot) id(r uint64) uint64 {
	return c.ref.at(c.begin+int(r)) - c.base
}

// unmap rewrites ranks among the children of root in place into the
// IDs they stand for.
//
//rdf:hotpath
func (c *refRoot) unmap(root ID, vals []uint64) {
	c.seek(root)
	for i, r := range vals {
		vals[i] = c.id(r)
	}
}

// rankGEQ returns the rank of the first child of the loaded root at or
// above id, or false when every child is smaller.
func (c *refRoot) rankGEQ(id ID) (uint64, bool) {
	_, end, _ := c.ref.span(c.root)
	pos, _, ok := c.ref.geq(c.begin, end, c.base, id)
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
		if v, ok = ref.rank(b, c); !ok {
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
	t     *trie.Trie
	ps    *PS // non-nil: a find walk over ps's subject list
	it2   seq.Iterator
	it1   seq.Iterator // children walk: t's level-1 node cursor; ps walk: the subject-list cursor
	ptrIt seq.Iterator // children walk: t's level-1 pointer cursor
	it    Iterator
	vals  []uint64
	ranks refRoot // unmaps t's third level when it is cross-compressed

	// The scalars come last: the garbage collector scans an object
	// only up to its last pointer.
	perm      Perm
	find      bool   // find walk; otherwise children walk
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
		m := st.it2.NextBatch(vals)
		if m == 0 {
			st.left = 0
			continue
		}
		st.left -= uint32(m)
		if st.ranks.ref != nil {
			st.ranks.unmap(st.b, vals[:m])
		}
		restoreBatch(st.perm, st.a, st.b, vals[:m], out[n:n+m])
		n += m
	}
	return n
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
			st.open(st.a, ID(bv), st.prev, int(endv))
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
			st.open(r, st.b, b2, e2)
			return true
		}
	}
}

// open points the third-level cursor at the range [b2, e2) holding the
// completions of (a, b).
func (st *walkState) open(a, b ID, b2, e2 int) {
	st.a, st.b, st.left = a, b, uint32(e2-b2)
	if st.it2 == nil {
		st.it2 = st.t.Iter2(b2, e2)
	} else {
		st.it2.Reset(b2, b2, e2)
	}
}

// walkChildren starts a children walk over roots [root, end), from
// level-1 positions [j, e) of root, whose children start at b1.
func (st *walkState) walkChildren(root, end ID, b1, j, e int) *Iterator {
	st.find = false
	st.a, st.root, st.end = root, root+1, end
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
	return &st.it
}

// walkFind starts a find walk for child b over the counted roots
// [root, end), or over the subject list of the state's PS.
func (st *walkState) walkFind(root, end, b ID) *Iterator {
	st.find = true
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
	st.open(a, b, b2, e2)
	return st.walkFind(0, 0, b) // no roots left: the range opened is the only one
}

// selectOne implements the select algorithm of Fig. 2 with only the first
// component fixed: scan the children of a and their completions.
func (x *staticIndex) selectOne(perm Perm, a ID) *Iterator {
	b1, e1 := x.tries[perm].RootRange(uint32(a))
	if b1 >= e1 {
		return x.empty()
	}
	return x.getWalk(&x.walks[perm], perm, nil).walkChildren(a, a+1, b1, b1, e1)
}

// scanAll enumerates the whole trie of perm (the ??? pattern) from its
// first non-empty root.
func (x *staticIndex) scanAll(perm Perm) *Iterator {
	t := x.tries[perm]
	n := ID(t.NumRoots())
	for r := ID(0); r < n; r++ {
		if b1, e1 := t.RootRange(uint32(r)); b1 < e1 {
			return x.getWalk(&x.walks[perm], perm, nil).walkChildren(r, n, b1, b1, e1)
		}
	}
	return x.empty()
}

// invertedOnPOS resolves ??O on the POS permutation (the 2Tp fallback
// of Section 3.3): |P| find operations locate o among each predicate's
// children.
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
