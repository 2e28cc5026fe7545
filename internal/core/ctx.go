package core

import (
	"sync"

	"rdfindexes/internal/trie"
)

// QueryCtx is the pooled per-query scratch arena for pattern
// selection: selection states, batch buffers, and compressed-sequence
// cursors that are reused across queries instead of reallocated.
//
// Concurrency contract ("one index, N goroutines"): a built Index is
// immutable — every sequence, trie level and dictionary it holds is
// read-only after construction — so any number of goroutines may call
// Select/SelectCtx, Count, Lookup and SelectVarSorted on one shared index
// concurrently without synchronization. All mutable query state lives in
// the *Iterator values those calls return and in QueryCtx; both are
// single-goroutine objects. DynamicIndex is the exception: its update log
// is mutable, so Insert/Delete need external synchronization, and
// concurrent readers must query an immutable DynamicSnapshot (which
// implements Index and this file's CtxSelecter) rather than the live
// DynamicIndex — the RCU pattern internal/store publishes views with.
//
// QueryCtx is the pooled per-query scratch arena of that contract. A
// query (an HTTP request, one benchmark probe, one BGP execution)
// acquires a ctx, resolves any number of patterns through it, and
// releases it; the selection-state structs, their batch buffers and
// their compressed-sequence cursors are then reused instead of
// reallocated, so a serving loop reaches steady state with no per-query
// allocation on the hot shapes. States return to the ctx's free lists
// automatically when their iterator is exhausted, which is what makes
// nested-loop BGP execution (many short-lived inner iterators per query)
// allocation-free too.
//
// Rules: a QueryCtx must not be shared between goroutines, and Release
// must not be called while an unexhausted iterator obtained through the
// ctx is still going to be used. An iterator obtained through a ctx is
// dead once exhausted (its state may be reused by the next pattern);
// exhausted iterators still answer Next/NextBatch with "no more results"
// until their state is actually reused, but must not be retained.
type QueryCtx struct {
	// trip is the reusable result buffer handed out by Batch; sized to
	// one refill block so drain loops match the decoder's batch size.
	trip [triBatch]Triple

	freeW []*walkState
	freeE []*enumerateState
	freeL []*litState
}

// ctxFreeCap bounds each free list; states beyond it (pathological BGP
// nesting depth) are left to the garbage collector.
const ctxFreeCap = 64

// ctxMismatchCap is the free-list size below which a trie mismatch
// allocates a fresh state instead of repurposing another trie's state.
// Repurposing destroys that trie's warmed cursors, and with one shared
// free list a workload alternating two tries would ping-pong a single
// state between them, reallocating cursors every query; letting the
// list grow to one state per trie first makes mixed workloads
// allocation-free. An index walks at most 3 tries, or 2 and the PS
// subject list (2To), so 4 covers every layout with slack.
const ctxMismatchCap = 4

var queryCtxPool = sync.Pool{New: func() any { return &QueryCtx{} }}

// AcquireQueryCtx takes a query context from the process-wide pool.
func AcquireQueryCtx() *QueryCtx {
	//rdf:allow(ownership transfers to the caller; Release returns it to the pool)
	return queryCtxPool.Get().(*QueryCtx)
}

// Release returns the ctx to the pool. The caller must have drained or
// abandoned every iterator obtained through it.
func (c *QueryCtx) Release() {
	if c != nil {
		queryCtxPool.Put(c)
	}
}

// Batch returns the ctx's reusable triple buffer for NextBatch drain
// loops. The buffer is invalidated by the next Batch call on the same
// ctx, not by state recycling.
func (c *QueryCtx) Batch() []Triple { return c.trip[:] }

// recycle returns the state behind an exhausted iterator to its free
// list.
func (c *QueryCtx) recycle(src blockSource) {
	switch st := src.(type) {
	case *walkState:
		ctxPush(&c.freeW, st)
	case *enumerateState:
		ctxPush(&c.freeE, st)
	case *litState:
		ctxPush(&c.freeL, st)
	}
}

// ctxPop pops a free state, or returns nil when the list is empty.
func ctxPop[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	st := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return st
}

// ctxPopMatch pops the most recently freed state satisfying match, or
// nil. Used to prefer a state whose cursors already belong to the query
// trie: a mixed workload alternating tries would otherwise ping-pong
// states between tries and reallocate the cursors every time.
func ctxPopMatch[T any](free *[]*T, match func(*T) bool) *T {
	for i := len(*free) - 1; i >= 0; i-- {
		if match((*free)[i]) {
			st := (*free)[i]
			(*free)[i] = (*free)[len(*free)-1]
			(*free)[len(*free)-1] = nil
			*free = (*free)[:len(*free)-1]
			return st
		}
	}
	return nil
}

// ctxPush returns a state to its free list unless the list is full.
func ctxPush[T any](free *[]*T, st *T) {
	if len(*free) < ctxFreeCap {
		*free = append(*free, st)
	}
}

// CtxSelecter is implemented by indexes whose pattern resolution can draw
// per-query scratch from a QueryCtx. All layouts in this package
// implement it.
type CtxSelecter interface {
	SelectCtx(Pattern, *QueryCtx) *Iterator
}

// SelectWithCtx resolves p on x, drawing per-query scratch from c when c
// is non-nil and the index supports it; otherwise it behaves exactly
// like x.Select(p).
func SelectWithCtx(x Index, p Pattern, c *QueryCtx) *Iterator {
	if c != nil {
		if cs, ok := x.(CtxSelecter); ok {
			return cs.SelectCtx(p, c)
		}
	}
	return x.Select(p)
}

// The acquisition helpers below either pop a recycled state (resetting
// its query-specific fields while keeping its scratch buffers and, where
// the trie matches, its compressed-sequence cursors) or allocate a fresh
// one. A nil ctx degrades to plain heap allocation, so the non-ctx
// Select path is unchanged.

// getWalk returns a walk state over trie t, and over the subject list
// of ps when ps is non-nil, preferring a recycled one whose cursors
// already belong to them.
func (c *QueryCtx) getWalk(t *trie.Trie, ps *PS, ref *crossRef, perm Perm) *walkState {
	var st *walkState
	if c != nil {
		st = ctxPopMatch(&c.freeW, func(s *walkState) bool { return s.t == t && s.ps == ps })
		if st == nil && len(c.freeW) >= ctxMismatchCap {
			st = ctxPop(&c.freeW)
		}
	}
	if st == nil {
		st = &walkState{}
		st.vals = st.vals0[:]
	}
	if st.t != t || st.ps != ps {
		st.t, st.ps, st.it1, st.ptrIt, st.it2 = t, ps, nil, nil, nil
	}
	st.perm, st.left = perm, 0
	st.ranks.use(ref)
	st.it.reinit(st, c)
	return st
}

func (c *QueryCtx) getEnumerate() *enumerateState {
	if c != nil {
		if st := ctxPop(&c.freeE); st != nil {
			st.s, st.o, st.prev, st.pos1, st.b1, st.e1 = 0, 0, 0, 0, 0, 0
			st.it.reinit(st, c)
			return st
		}
	}
	st := &enumerateState{}
	st.it.reinit(st, c)
	return st
}

// litState backs the zero- and one-triple iterators (fully-bound SPO
// lookups and miss early-exits), which dominate point-query serving:
// pooling them keeps even those shapes allocation-free.
type litState struct {
	t  [1]Triple
	it Iterator
}

// fill is never called: a literal iterator is born done. The state is
// its iterator's source only to be recycled through it.
func (*litState) fill([]Triple) int { return 0 }

// getLit returns a literal-result iterator holding n (0 or 1) buffered
// triples; the caller fills st.t[0] for n == 1. Must not be called with
// a nil ctx.
func (c *QueryCtx) getLit(n int) *litState {
	st := ctxPop(&c.freeL)
	if st == nil {
		st = &litState{}
	}
	st.it.reinit(st, c)
	st.it.n, st.it.done, st.it.buf = int32(n), true, st.t[:]
	return st
}
