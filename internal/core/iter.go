package core

import (
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
type Iterator struct {
	buf []Triple
	// pos and n are 32-bit, as buf holds at most triBatch triples: the
	// selection states embed an Iterator and are allocated per query by
	// Select without a ctx, so they are kept small.
	pos, n int32
	done   bool
	src    blockSource // block source; fill returning 0 means exhausted
	owner  *QueryCtx   // non-nil: src returns to its free lists on exhaustion
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
func EmptyIterator() *Iterator { return emptyIteratorCtx(nil) }

// SingleIterator returns an iterator yielding exactly t.
func SingleIterator(t Triple) *Iterator { return singleIteratorCtx(nil, t) }

// reinit prepares an embedded Iterator for a fresh query, keeping its
// grown buffer across reuses.
func (it *Iterator) reinit(src blockSource, owner *QueryCtx) {
	it.pos, it.n = 0, 0
	it.done = false
	it.src = src
	it.owner = owner
}

// drop runs once on exhaustion: the backing state returns to its
// QueryCtx free list and the source is detached so no further call can
// reach recycled state.
func (it *Iterator) drop() {
	if it.owner == nil {
		return
	}
	c, src := it.owner, it.src
	it.owner, it.src = nil, nil
	c.recycle(src)
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
// were written; 0 iff the iterator is exhausted. Block-producing
// iterators decode straight into out, so a caller that drains through
// NextBatch with a reusable buffer performs zero allocations per triple.
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
			it.drop()
			break
		}
		k := 0
		if it.src != nil {
			k = it.src.fill(out[n:])
		}
		if k == 0 {
			it.done = true
			it.drop()
			break
		}
		n += k
	}
	return n
}

// Count drains the iterator and returns the number of triples.
func (it *Iterator) Count() int {
	n := int(it.n - it.pos)
	it.pos = it.n
	if it.done {
		it.drop()
		return n
	}
	for it.src != nil && !it.done {
		k := it.refill()
		if k == 0 {
			break
		}
		n += k
	}
	it.pos = it.n
	it.done = true
	it.drop()
	return n
}

// Collect drains the iterator into a slice, stopping after limit triples
// if limit >= 0.
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
			break
		}
		out = append(out, chunk[:k]...)
	}
	return out
}

// emptyIteratorCtx and singleIteratorCtx return a literal-result
// iterator, drawn from the ctx pool when c is non-nil.
func emptyIteratorCtx(c *QueryCtx) *Iterator {
	if c == nil {
		return &Iterator{done: true}
	}
	return &c.getLit(0).it
}

func singleIteratorCtx(c *QueryCtx, t Triple) *Iterator {
	if c == nil {
		return &Iterator{buf: []Triple{t}, n: 1, done: true}
	}
	st := c.getLit(1)
	st.t[0] = t
	return &st.it
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

// rank is the map function of Fig. 4: c's position among the children
// of root b in the reference trie ref, or false when c is not one.
func rank(ref *trie.Trie, b, c ID) (uint64, bool) {
	begin, end := ref.RootRange(uint32(b))
	j := ref.FindChild1(begin, end, uint32(c))
	if j < 0 {
		return 0, false
	}
	return uint64(j - begin), true
}

// unmap rewrites ranks among the children of root b in ref back into
// the IDs they stand for (Fig. 4).
//
//rdf:hotpath
func unmap(ref *trie.Trie, b ID, vals []uint64) {
	begin, _ := ref.RootRange(uint32(b))
	for i, v := range vals {
		vals[i] = uint64(ref.Node1At(begin, begin+int(v)))
	}
}

// lookup resolves the fully-specified pattern on any trie: two find
// operations (Section 3.1). On a cross-compressed trie (ref non-nil) the
// third component is first mapped to its rank.
func lookup(qc *QueryCtx, t, ref *trie.Trie, perm Perm, tr Triple) *Iterator {
	a, b, c := perm.Apply(tr)
	b1, e1 := t.RootRange(uint32(a))
	j := t.FindChild1(b1, e1, uint32(b))
	if j < 0 {
		return emptyIteratorCtx(qc)
	}
	v := uint64(c)
	if ref != nil {
		var ok bool
		if v, ok = rank(ref, b, c); !ok {
			return emptyIteratorCtx(qc)
		}
	}
	b2, e2 := t.ChildRange(j)
	if t.FindChild2(b2, e2, uint32(v)) < 0 {
		return emptyIteratorCtx(qc)
	}
	return singleIteratorCtx(qc, tr)
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
	ps    *PS        // non-nil: a find walk over ps's subject list
	ref   *trie.Trie // non-nil: t's third level is cross-compressed
	it2   seq.Iterator
	it1   seq.Iterator // children walk: t's level-1 node cursor; ps walk: the subject-list cursor
	ptrIt seq.Iterator // children walk: t's level-1 pointer cursor
	it    Iterator
	vals  []uint64

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
		if st.ref != nil {
			unmap(st.ref, st.b, vals[:m])
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
func selectTwo(c *QueryCtx, t, ref *trie.Trie, perm Perm, a, b ID) *Iterator {
	b1, e1 := t.RootRange(uint32(a))
	j := t.FindChild1(b1, e1, uint32(b))
	if j < 0 {
		return emptyIteratorCtx(c)
	}
	b2, e2 := t.ChildRange(j)
	st := c.getWalk(t, nil, ref, perm)
	st.open(a, b, b2, e2)
	return st.walkFind(0, 0, b) // no roots left: the range opened is the only one
}

// selectOne implements the select algorithm of Fig. 2 with only the first
// component fixed: scan the children of a and their completions.
func selectOne(c *QueryCtx, t, ref *trie.Trie, perm Perm, a ID) *Iterator {
	b1, e1 := t.RootRange(uint32(a))
	if b1 >= e1 {
		return emptyIteratorCtx(c)
	}
	return c.getWalk(t, nil, ref, perm).walkChildren(a, a+1, b1, b1, e1)
}

// scanAll enumerates the whole trie (the ??? pattern) from its first
// non-empty root.
func scanAll(c *QueryCtx, t, ref *trie.Trie, perm Perm) *Iterator {
	n := ID(t.NumRoots())
	for r := ID(0); r < n; r++ {
		if b1, e1 := t.RootRange(uint32(r)); b1 < e1 {
			return c.getWalk(t, nil, ref, perm).walkChildren(r, n, b1, b1, e1)
		}
	}
	return emptyIteratorCtx(c)
}

// invertedOnPOS resolves ??O on the POS permutation (the 2Tp fallback
// of Section 3.3): |P| find operations locate o among each predicate's
// children.
func invertedOnPOS(c *QueryCtx, pos *trie.Trie, o ID) *Iterator {
	return c.getWalk(pos, nil, nil, PermPOS).walkFind(0, ID(pos.NumRoots()), o)
}

// invertedOnPS resolves ?P? for 2To (Section 3.3): walk the PS
// structure's subject list of p and find p among each subject's children
// on SPO. Every subject in the list has a triple with predicate p, so
// each find succeeds.
func invertedOnPS(c *QueryCtx, ps *PS, spo *trie.Trie, p ID) *Iterator {
	b, e := ps.Range(p)
	if b >= e {
		return emptyIteratorCtx(c)
	}
	st := c.getWalk(spo, ps, nil, PermSPO)
	if st.it1 != nil {
		st.it1.Reset(b, b, e)
	} else {
		st.it1 = ps.Iter(b, e)
	}
	return st.walkFind(0, 0, p)
}

// enumerateState implements the algorithm of Fig. 5, resolving S?O
// directly on the SPO permutation: for each predicate child of s, one
// find among its objects. The subject's few children are walked with
// sequential node and pointer iterators, which is where the algorithm's
// advantage over percolating the OSP trie comes from (Section 3.3).
type enumerateState struct {
	spo          *trie.Trie
	s, o         ID
	ptrIt        seq.Iterator
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

func enumerate(c *QueryCtx, spo *trie.Trie, s, o ID) *Iterator {
	b1, e1 := spo.RootRange(uint32(s))
	if b1 >= e1 {
		return emptyIteratorCtx(c)
	}
	st := c.getEnumerate()
	st.s, st.o, st.b1, st.e1, st.pos1 = s, o, b1, e1, b1
	if st.spo == spo && st.ptrIt != nil {
		st.ptrIt.Reset(0, b1, e1+1)
	} else {
		st.spo = spo
		st.ptrIt = spo.Ptr1Iter(b1, e1+1)
	}
	first, _ := st.ptrIt.Next()
	st.prev = int(first)
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
