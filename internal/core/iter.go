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
	buf    []Triple
	pos, n int
	done   bool
	src    blockSource // block source; fill returning 0 means exhausted
	owner  recycler    // QueryCtx hook, run once on exhaustion
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
func EmptyIterator() *Iterator { return emptyIterator() }

// SingleIterator returns an iterator yielding exactly t.
func SingleIterator(t Triple) *Iterator { return singleIterator(t) }

// reinit prepares an embedded Iterator for a fresh query, keeping its
// grown buffer across reuses.
func (it *Iterator) reinit(src blockSource, owner recycler) {
	it.pos, it.n = 0, 0
	it.done = false
	it.src = src
	it.owner = owner
}

// drop runs the exhaustion hook once: the backing state returns to its
// QueryCtx free list and the source is detached so no further call can
// reach recycled state.
func (it *Iterator) drop() {
	if it.owner == nil {
		return
	}
	o := it.owner
	it.owner = nil
	it.src = nil
	o.recycle()
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
	} else if it.n == len(it.buf) && len(it.buf) < triBatch {
		n := len(it.buf) * 4
		if n > triBatch {
			n = triBatch
		}
		it.buf = make([]Triple, n)
	}
	n := it.src.fill(it.buf)
	it.pos, it.n = 0, n
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
			it.pos += c
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
	n := it.n - it.pos
	it.pos = it.n
	if it.done {
		it.drop()
		return n
	}
	for it.src != nil {
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

func emptyIterator() *Iterator {
	return &Iterator{done: true}
}

func singleIterator(t Triple) *Iterator {
	return &Iterator{buf: []Triple{t}, n: 1, done: true}
}

// emptyIteratorCtx and singleIteratorCtx draw the literal-result
// iterator from the ctx pool when one is available.
func emptyIteratorCtx(c *QueryCtx) *Iterator {
	if c == nil {
		return emptyIterator()
	}
	return &c.getLit(0).it
}

func singleIteratorCtx(c *QueryCtx, t Triple) *Iterator {
	if c == nil {
		return singleIterator(t)
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

// selectTwoState resolves a pattern with the first two components fixed:
// the completions of one third-level range, decoded in blocks.
type selectTwoState struct {
	perm  Perm
	a, b  ID
	left  int        // elements remaining in the range
	t     *trie.Trie // trie the cursor below belongs to
	ref   *trie.Trie // non-nil: t's third level is cross-compressed
	it2   seq.Iterator
	c     *QueryCtx
	it    Iterator
	vals  []uint64
	vals0 [8]uint64
}

//rdf:hotpath
func (st *selectTwoState) fill(out []Triple) int {
	k := len(out)
	if k > st.left {
		k = st.left
	}
	vals := valBuf(&st.vals, k)
	n := st.it2.NextBatch(vals)
	st.left -= n
	if st.ref != nil {
		unmap(st.ref, st.b, vals[:n])
	}
	restoreBatch(st.perm, st.a, st.b, vals[:n], out[:n])
	return n
}

// selectTwo implements the select algorithm of Fig. 2 with the first two
// components fixed: one find on the second level, then a block-decoded
// scan of the completions on the third. A recycled state whose cursor
// already belongs to t is repositioned with Reset instead of allocating
// a fresh compressed-sequence iterator.
func selectTwo(c *QueryCtx, t, ref *trie.Trie, perm Perm, a, b ID) *Iterator {
	b1, e1 := t.RootRange(uint32(a))
	j := t.FindChild1(b1, e1, uint32(b))
	if j < 0 {
		return emptyIteratorCtx(c)
	}
	b2, e2 := t.ChildRange(j)
	st := c.getSelectTwo(t)
	st.perm, st.a, st.b, st.left, st.ref = perm, a, b, e2-b2, ref
	if st.t == t && st.it2 != nil {
		st.it2.Reset(b2, b2, e2)
	} else {
		st.t = t
		st.it2 = t.Iter2(b2, e2)
	}
	return &st.it
}

// selectOneState walks the children of one root and their completions.
// Sibling ranges of the third level are contiguous, so a single reusable
// level-2 iterator is repositioned with Reset per child, which carries
// the prefix-sum base over instead of paying a random access.
type selectOneState struct {
	perm      Perm
	a, curB   ID
	t         *trie.Trie
	it1       seq.Iterator
	ptrIt     seq.Iterator
	it2       seq.Iterator
	it2Active bool
	prev      int
	left      int
	ref       *trie.Trie // non-nil: t's third level is cross-compressed
	c         *QueryCtx
	it        Iterator
	vals      []uint64
	vals0     [8]uint64
}

//rdf:hotpath
func (st *selectOneState) fill(out []Triple) int {
	n := 0
	for n < len(out) {
		if st.it2Active {
			k := len(out) - n
			if k > st.left {
				k = st.left
			}
			vals := valBuf(&st.vals, k)
			m := st.it2.NextBatch(vals)
			st.left -= m
			if m > 0 {
				if st.ref != nil {
					unmap(st.ref, st.curB, vals[:m])
				}
				restoreBatch(st.perm, st.a, st.curB, vals[:m], out[n:n+m])
				n += m
				continue
			}
			st.it2Active = false
		}
		bv, ok := st.it1.Next()
		if !ok {
			break
		}
		st.curB = ID(bv)
		endv, _ := st.ptrIt.Next()
		b2, e2 := st.prev, int(endv)
		st.prev = e2
		if st.it2 == nil {
			st.it2 = st.t.Iter2(b2, e2)
		} else {
			st.it2.Reset(b2, b2, e2)
		}
		st.left = e2 - b2
		st.it2Active = true
	}
	return n
}

// selectOne implements the select algorithm of Fig. 2 with only the first
// component fixed: scan the children and their completions. Sibling
// ranges are delimited by a sequential pointer iterator.
func selectOne(c *QueryCtx, t, ref *trie.Trie, perm Perm, a ID) *Iterator {
	b1, e1 := t.RootRange(uint32(a))
	if b1 >= e1 {
		return emptyIteratorCtx(c)
	}
	st := c.getSelectOne(t)
	st.perm, st.a, st.ref = perm, a, ref
	if st.t == t && st.it1 != nil {
		st.it1.Reset(b1, b1, e1)
		st.ptrIt.Reset(0, b1, e1+1)
	} else {
		st.t = t
		st.it1 = t.Iter1(b1, e1)
		st.ptrIt = t.Ptr1Iter(b1, e1+1)
		st.it2 = nil
	}
	first, _ := st.ptrIt.Next()
	st.prev = int(first)
	return &st.it
}

// scanAllState enumerates the whole trie (the ??? pattern). The level-1
// node and pointer sequences are consumed by single sequential cursors:
// sibling ranges of consecutive roots are contiguous, so the level-1
// iterator is repositioned with the cheap contiguous Reset, and the
// pointer value closing one range opens the next.
type scanAllState struct {
	perm      Perm
	t         *trie.Trie
	root      int
	pos1, e1  int
	prev      int
	curB      ID
	it1       seq.Iterator
	ptrIt     seq.Iterator
	it2       seq.Iterator
	it2Active bool
	left      int
	ref       *trie.Trie // non-nil: t's third level is cross-compressed
	c         *QueryCtx
	it        Iterator
	vals      []uint64
	vals0     [8]uint64
}

//rdf:hotpath
func (st *scanAllState) fill(out []Triple) int {
	n := 0
	for n < len(out) {
		if st.it2Active {
			k := len(out) - n
			if k > st.left {
				k = st.left
			}
			vals := valBuf(&st.vals, k)
			m := st.it2.NextBatch(vals)
			st.left -= m
			if m > 0 {
				if st.ref != nil {
					unmap(st.ref, st.curB, vals[:m])
				}
				restoreBatch(st.perm, ID(st.root), st.curB, vals[:m], out[n:n+m])
				n += m
				continue
			}
			st.it2Active = false
		}
		if st.pos1 < st.e1 {
			bv, _ := st.it1.Next()
			st.curB = ID(bv)
			endv, _ := st.ptrIt.Next()
			b2, e2 := st.prev, int(endv)
			st.prev = e2
			st.pos1++
			if st.it2 == nil {
				st.it2 = st.t.Iter2(b2, e2)
			} else {
				st.it2.Reset(b2, b2, e2)
			}
			st.left = e2 - b2
			st.it2Active = true
			continue
		}
		// Advance to the next non-empty root.
		var b1 int
		for {
			st.root++
			if st.root >= st.t.NumRoots() {
				return n
			}
			b1, st.e1 = st.t.RootRange(uint32(st.root))
			if b1 < st.e1 {
				break
			}
		}
		st.pos1 = b1
		if st.it1 == nil {
			st.it1 = st.t.Iter1(b1, st.e1)
			st.ptrIt = st.t.Ptr1Iter(b1, st.t.NumInternal()+1)
			first, _ := st.ptrIt.Next()
			st.prev = int(first)
		} else {
			// Level-1 ranges of consecutive non-empty roots are
			// contiguous, and the pointer closing the previous range
			// (held in prev) already delimits the next one, so the
			// pointer cursor just keeps streaming.
			st.it1.Reset(b1, b1, st.e1)
		}
	}
	return n
}

// scanAll enumerates the whole trie (the ??? pattern).
func scanAll(c *QueryCtx, t, ref *trie.Trie, perm Perm) *Iterator {
	st := c.getScanAll()
	if st.t != t {
		st.t = t
		st.it2 = nil
	}
	st.perm, st.root, st.ref = perm, -1, ref
	return &st.it
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
	c            *QueryCtx
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

// invertedPOSState resolves ??O on the POS permutation (the 2Tp fallback
// of Section 3.3): |P| find operations locate o among each predicate's
// children; matching subject ranges are decoded in blocks.
type invertedPOSState struct {
	pos       *trie.Trie
	o, curP   ID
	p         int
	it2       seq.Iterator
	it2Active bool
	left      int
	c         *QueryCtx
	it        Iterator
	vals      []uint64
	vals0     [8]uint64
}

//rdf:hotpath
func (st *invertedPOSState) fill(out []Triple) int {
	n := 0
	for n < len(out) {
		if st.it2Active {
			k := len(out) - n
			if k > st.left {
				k = st.left
			}
			vals := valBuf(&st.vals, k)
			m := st.it2.NextBatch(vals)
			st.left -= m
			if m > 0 {
				restoreBatch(PermPOS, st.curP, st.o, vals[:m], out[n:n+m])
				n += m
				continue
			}
			st.it2Active = false
		}
		st.p++
		if st.p >= st.pos.NumRoots() {
			break
		}
		b1, e1 := st.pos.RootRange(uint32(st.p))
		j := st.pos.FindChild1(b1, e1, uint32(st.o))
		if j < 0 {
			continue
		}
		st.curP = ID(st.p)
		b2, e2 := st.pos.ChildRange(j)
		if st.it2 == nil {
			st.it2 = st.pos.Iter2(b2, e2)
		} else {
			st.it2.Reset(b2, b2, e2)
		}
		st.left = e2 - b2
		st.it2Active = true
	}
	return n
}

func invertedOnPOS(c *QueryCtx, pos *trie.Trie, o ID) *Iterator {
	st := c.getInvertedPOS()
	if st.pos != pos {
		st.pos = pos
		st.it2 = nil
	}
	st.o, st.p = o, -1
	return &st.it
}

// invertedPSState resolves ?P? for 2To (Section 3.3): walk the PS
// structure's subject list of p and pattern match (s, p, ?) on SPO for
// each subject.
type invertedPSState struct {
	ps        *PS
	spo       *trie.Trie
	p, curS   ID
	subjects  seq.Iterator
	it2       seq.Iterator
	it2Active bool
	left      int
	c         *QueryCtx
	it        Iterator
	vals      []uint64
	vals0     [8]uint64
}

//rdf:hotpath
func (st *invertedPSState) fill(out []Triple) int {
	n := 0
	for n < len(out) {
		if st.it2Active {
			k := len(out) - n
			if k > st.left {
				k = st.left
			}
			vals := valBuf(&st.vals, k)
			m := st.it2.NextBatch(vals)
			st.left -= m
			if m > 0 {
				restoreBatch(PermSPO, st.curS, st.p, vals[:m], out[n:n+m])
				n += m
				continue
			}
			st.it2Active = false
		}
		sv, ok := st.subjects.Next()
		if !ok {
			break
		}
		// (s, p, ?) on SPO: every subject in the PS list has at least
		// one triple with predicate p, so the find always succeeds.
		b1, e1 := st.spo.RootRange(uint32(sv))
		j := st.spo.FindChild1(b1, e1, uint32(st.p))
		if j < 0 {
			continue
		}
		st.curS = ID(sv)
		b2, e2 := st.spo.ChildRange(j)
		if st.it2 == nil {
			st.it2 = st.spo.Iter2(b2, e2)
		} else {
			st.it2.Reset(b2, b2, e2)
		}
		st.left = e2 - b2
		st.it2Active = true
	}
	return n
}

func invertedOnPS(c *QueryCtx, ps *PS, spo *trie.Trie, p ID) *Iterator {
	b, e := ps.Range(p)
	if b >= e {
		return emptyIteratorCtx(c)
	}
	st := c.getInvertedPS()
	st.p = p
	if st.ps == ps && st.subjects != nil {
		st.subjects.Reset(b, b, e)
	} else {
		st.ps = ps
		st.subjects = ps.Iter(b, e)
	}
	if st.spo != spo {
		st.spo = spo
		st.it2 = nil
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
