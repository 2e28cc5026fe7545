package core

import (
	"sync"

	"rdfindexes/internal/seq"
)

// A built index is immutable — every sequence, trie level and dictionary
// it holds is read-only after construction — so any number of goroutines
// may call Select, Count, Lookup and SelectVarSorted on one shared index
// without synchronization. The mutable state of a selection lives in the
// state behind its Iterator, a single-goroutine object. DynamicIndex is
// the exception: its update log is mutable, so Insert/Delete need
// external synchronization, and concurrent readers query an immutable
// DynamicSnapshot instead — the RCU pattern internal/store publishes
// views with.
//
// The states are pooled by the index they walk: one pool of walk states
// per stored permutation, one for 2To's walks over the PS structure, one
// of enumerate states, one of literal iterators, and one of sorted
// binding streams (VarIter) per stored permutation. A state is made for
// one trie, so its compressed-sequence cursors are always that trie's and
// are repositioned, not reallocated, when it serves the next pattern; and
// a state pins only the index that pools it. Select takes a state from
// its pool and the state goes back on the call that reports its
// iterator's end, so a warm index selects without allocating, nested-
// loop joins (many short inner selections) included. A binding stream
// goes back on its Close, so a warm merge-intersection join allocates
// nothing either.

// pools holds the selection states of one index.
type pools struct {
	walks  [NumPerms]sync.Pool // *walkState over tries[p]
	psWalk sync.Pool           // *walkState over the PS subject lists and SPO (2To)
	enums  sync.Pool           // *enumerateState over SPO
	lits   sync.Pool           // *litState
	vars   [NumPerms]sync.Pool // *VarIter over tries[p]
}

// getWalk returns a walk state over the trie of stored permutation p, or
// over the subject lists of ps and SPO when ps is non-nil, taken from
// pool, which holds only such states.
func (x *staticIndex) getWalk(pool *sync.Pool, p Perm, ps *PS) *walkState {
	st, ok := pool.Get().(*walkState)
	if !ok {
		t := x.tries[p]
		st = &walkState{t: t, ps: ps, nodes2: t.Nodes(2), carry: seq.PrefixSummed(t.Nodes(2)), perm: p}
		st.vals = st.vals0[:]
		st.ranks.use(x.xref[p])
	}
	st.left, st.one = 0, false
	st.it.reinit(st, pool)
	//rdf:allow(ownership passes to the iterator, which puts the state back at its end)
	return st
}

// getEnumerate returns an enumerate state over SPO.
func (x *staticIndex) getEnumerate() *enumerateState {
	st, ok := x.enums.Get().(*enumerateState)
	if !ok {
		st = &enumerateState{spo: x.tries[PermSPO]}
		st.ranks.use(x.xref[PermSPO])
	}
	st.it.reinit(st, &x.enums)
	//rdf:allow(ownership passes to the iterator, which puts the state back at its end)
	return st
}

// getVar returns a binding stream over the trie of stored permutation p.
func (x *staticIndex) getVar(p Perm) *VarIter {
	v, ok := x.vars[p].Get().(*VarIter)
	if !ok {
		v = &VarIter{t: x.tries[p]}
		v.ranks.use(x.xref[p])
	}
	v.pool, v.empty = &x.vars[p], false
	//rdf:allow(ownership passes to the caller, whose Close puts the stream back)
	return v
}

// litState backs the zero- and one-triple iterators (fully-bound SPO
// lookups and miss early-exits), which dominate point-query serving:
// pooling them keeps even those shapes allocation-free.
type litState struct {
	t  [1]Triple
	it Iterator
}

// fill is never called: a literal iterator is born done. The state is
// its iterator's source only to go back to its pool through it.
func (*litState) fill([]Triple) int { return 0 }

// lit returns a literal-result iterator holding n (0 or 1) buffered
// triples; the caller fills st.t[0] for n == 1.
func (x *staticIndex) lit(n int) *litState {
	st, ok := x.lits.Get().(*litState)
	if !ok {
		st = &litState{}
	}
	st.it.reinit(st, &x.lits)
	st.it.n, st.it.done, st.it.buf = int32(n), true, st.t[:]
	//rdf:allow(ownership passes to the iterator, which puts the state back at its end)
	return st
}

// empty returns a pooled iterator with no results.
func (x *staticIndex) empty() *Iterator { return &x.lit(0).it }

// single returns a pooled iterator yielding exactly t.
func (x *staticIndex) single(t Triple) *Iterator {
	st := x.lit(1)
	st.t[0] = t
	return &st.it
}

// The four names below, QueryCtx's Batch and Release among them, are a
// shim for benchmark/ladder, which compiles against them; ROADMAP item
// 1A deletes them with the ladder's adapter. Selection states are the
// index's, so a QueryCtx is only a reusable triple buffer, and
// SelectWithCtx ignores it.

// QueryCtx holds a reusable triple buffer.
type QueryCtx struct{ trip [triBatch]Triple }

var queryCtxPool = sync.Pool{New: func() any { return new(QueryCtx) }}

// AcquireQueryCtx takes a ctx from the pool.
func AcquireQueryCtx() *QueryCtx {
	//rdf:allow(ownership transfers to the caller; Release returns it to the pool)
	return queryCtxPool.Get().(*QueryCtx)
}

// Release returns the ctx to the pool.
func (c *QueryCtx) Release() { queryCtxPool.Put(c) }

// Batch returns the ctx's triple buffer.
func (c *QueryCtx) Batch() []Triple { return c.trip[:] }

// SelectWithCtx is x.Select(p).
func SelectWithCtx(x Index, p Pattern, _ *QueryCtx) *Iterator { return x.Select(p) }
