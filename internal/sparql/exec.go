package sparql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"rdfindexes/internal/core"
	"rdfindexes/internal/obs"
)

// Store is the index capability the executor needs; all index layouts in
// this repository and the baseline systems satisfy it.
type Store interface {
	Select(core.Pattern) *core.Iterator
	NumTriples() int
}

// ExecStats reports the work done by an execution: the serial
// decomposition length (number of atomic triple selection patterns
// issued) and the number of triples they matched. Table 6 of the paper
// measures exactly this decomposition's raw index speed. When a group of
// patterns is resolved by a merge-intersection instead of nested
// iteration, TriplesMatched counts only the intersected matches — the
// skipped candidates are exactly the work the join optimization saves.
// Both counts are logical: a selection answered from Run's memo counts
// as issued and its triples as matched, exactly as if the index had
// answered it again; Replayed says how many of them the memo answered.
type ExecStats struct {
	PatternsIssued int
	TriplesMatched int
	Results        int
	Replayed       int
}

// action is what a candidate triple's component does to its register.
type action uint8

const (
	actNone  action = iota // constant, or bound by an earlier step
	actBind                // first occurrence of a variable free here: store
	actCheck               // repeat of it in the same pattern (?x p ?x): compare
)

// operand is one pattern component with its variable resolved: the
// register it loads from (unbound registers hold core.Wildcard) or, with
// slot negative, the constant id. act is set by Compile only.
type operand struct {
	slot int
	id   core.ID
	act  action
}

// slotOf returns the register of variable v, len(names) if it has none.
func slotOf(names []string, v string) int {
	slot := 0
	for slot < len(names) && names[slot] != v {
		slot++
	}
	return slot
}

// resolve numbers the query's variables in first-occurrence order and
// rewrites every pattern over those slots, appending the names by slot
// and the patterns to the given buffers: Plan and Compile pass arrays on
// their stacks, which hold queries of up to maxInline patterns.
func resolve(q Query, names []string, pats [][3]operand) ([]string, [][3]operand) {
	for _, tp := range q.Patterns {
		var p [3]operand
		for k, t := range [3]Term{tp.S, tp.P, tp.O} {
			if !t.IsVar() {
				p[k] = operand{slot: -1, id: t.ID}
				continue
			}
			slot := slotOf(names, t.Var)
			if slot == len(names) {
				names = append(names, t.Var)
			}
			p[k].slot = slot
		}
		pats = append(pats, p)
	}
	return names, pats
}

// The stack buffers resolve and its callers work in.
type (
	nameBuf [3 * maxInline]string
	patBuf  [maxInline][3]operand
	flagBuf [3 * maxInline]bool
)

// zeroed returns n zero values, in buf when it is long enough.
func zeroed[T any](buf []T, n int) []T {
	if n > len(buf) {
		return make([]T, n)
	}
	clear(buf[:n])
	return buf[:n]
}

// free reports whether the component is still a wildcard once the bound
// slots hold values.
func (o operand) free(bound []bool) bool { return o.slot >= 0 && !bound[o.slot] }

// singleFree returns the slot of the one variable of p still unbound,
// provided it occupies exactly one component and no other is free.
func singleFree(p [3]operand, bound []bool) (int, bool) {
	slot, n := -1, 0
	for _, o := range p {
		if o.free(bound) {
			slot = o.slot
			n++
		}
	}
	return slot, n == 1
}

// shapeCost ranks pattern shapes by expected selectivity; used to order
// the BGP greedily, most selective first, as TripleBit's planner does for
// the paper's benchmark.
func shapeCost(s core.Shape) int {
	switch s {
	case core.ShapeSPO:
		return 1
	case core.ShapeSxO:
		return 4
	case core.ShapeSPx:
		return 8
	case core.ShapexPO:
		return 8
	case core.ShapeSxx:
		return 64
	case core.ShapexxO:
		return 64
	case core.ShapexPx:
		return 4096
	default:
		return 1 << 20
	}
}

// Plan orders the BGP's patterns greedily: at each step it picks the
// unused pattern whose shape is cheapest (shapeCost) once the variables
// bound so far count as constants, with patterns sharing no bound
// variable made dearer (they would start a Cartesian product). It
// returns the evaluation order as indexes into q.Patterns.
func Plan(q Query) []int {
	var nb nameBuf
	var pb patBuf
	var bb, ub flagBuf
	names, pats := resolve(q, nb[:0], pb[:0])
	bound := zeroed(bb[:], len(names))
	used := zeroed(ub[:], len(pats))
	order := make([]int, 0, len(pats))
	for len(order) < len(pats) {
		best, bestCost := -1, math.MaxInt
		for i, p := range pats {
			if used[i] {
				continue
			}
			c := staticCost(p, bound)
			shares := false
			for _, r := range p {
				shares = shares || r.slot >= 0 && bound[r.slot]
			}
			if len(order) > 0 && !shares {
				c *= 1 << 10
			}
			if c < bestCost {
				best, bestCost = i, c
			}
		}
		order = append(order, best)
		used[best] = true
		for _, r := range pats[best] {
			if r.slot >= 0 {
				bound[r.slot] = true
			}
		}
	}
	return order
}

func staticCost(p [3]operand, bound []bool) int {
	var c [3]core.ID
	for k, r := range p {
		if r.free(bound) {
			c[k] = core.Wildcard
		}
	}
	return shapeCost(core.Pattern{S: c[0], P: c[1], O: c[2]}.Shape())
}

//rdf:hotpath
func (o operand) load(regs []core.ID) core.ID {
	if o.slot < 0 {
		return o.id
	}
	return regs[o.slot]
}

//rdf:hotpath
func (o operand) accept(regs []core.ID, id core.ID) bool {
	switch o.act {
	case actBind:
		regs[o.slot] = id
	case actCheck:
		return regs[o.slot] == id
	}
	return true
}

// step is one position of the evaluation order.
type step struct {
	pattern int // index into the query's patterns
	ops     [3]operand
	// gallop is the number of consecutive steps from this one whose only
	// free variable, under the registers bound before this step, is the
	// same single-component one (gslot); 0 when fewer than two.
	gallop, gslot int
	// memo marks an inner step outside any gallop group: Run keeps the
	// matches of each pattern it substitutes there and replays them when
	// the same pattern comes round again.
	memo bool
}

//rdf:hotpath
func (sp *step) substitute(regs []core.ID) core.Pattern {
	return core.Pattern{S: sp.ops[0].load(regs), P: sp.ops[1].load(regs), O: sp.ops[2].load(regs)}
}

// Compiled is a BGP with its evaluation order compiled into an immutable
// plan, shareable between concurrent Runs: every variable is a dense
// register slot and — because the order fixes which slots are bound at
// each step — what each candidate binds or checks, which runs of steps
// merge-intersect and where each projected column comes from are all
// decided here, once.
type Compiled struct {
	// Vars names the columns of a solution row (the query's projection)
	// and Roles gives the ID space each column's values are in; a
	// serializer needs that to pick the dictionary.
	Vars  []string
	Roles []core.Role
	Order []int

	steps  []step
	proj   []int // register of each projected column
	nslots int
}

// Compile builds the plan that evaluates q's patterns in the given order
// (a permutation of their indexes, e.g. from Plan). The plan keeps the
// order slice and a copy of q.Vars whose names still view q's text, so
// it is meant to live as long as the query it was compiled from. It
// rejects a variable used both as a predicate and as a subject
// or object: the two are separate ID spaces, so such a join compares
// unrelated numbers.
func Compile(q Query, order []int) (*Compiled, error) {
	var nb nameBuf
	var pb patBuf
	var sb, bb flagBuf
	names, pats := resolve(q, nb[:0], pb[:0])
	seen := zeroed(sb[:], len(pats))
	valid := len(order) == len(pats)
	for _, i := range order {
		if valid = valid && i >= 0 && i < len(pats) && !seen[i]; valid {
			seen[i] = true
		}
	}
	if !valid {
		return nil, fmt.Errorf("sparql: order %v is not a permutation of %d patterns", order, len(pats))
	}
	// roles[slot] is 1 + the variable's Role once a pattern has used it.
	var roleBuf [3 * maxInline]core.Role
	roles := zeroed(roleBuf[:], len(names))
	for _, p := range pats {
		for k, o := range p {
			role := 1 + core.RoleSO
			if k == 1 {
				role = 1 + core.RoleP
			}
			if o.slot >= 0 && roles[o.slot] != 0 && roles[o.slot] != role {
				return nil, fmt.Errorf("sparql: variable ?%s is used as a predicate and as a subject or object; the two are separate ID spaces and cannot join", names[o.slot])
			} else if o.slot >= 0 {
				roles[o.slot] = role
			}
		}
	}

	c := &Compiled{Vars: slices.Clone(q.Vars), Order: order, steps: make([]step, len(order)), nslots: len(names),
		proj: make([]int, 0, len(q.Vars)), Roles: make([]core.Role, 0, len(q.Vars))}
	bound := zeroed(bb[:], len(names))
	for i, pi := range order {
		sp := &c.steps[i]
		sp.pattern, sp.ops = pi, pats[pi]
		if v, ok := singleFree(sp.ops, bound); ok {
			g := i + 1
			for g < len(order) {
				if v2, ok2 := singleFree(pats[order[g]], bound); !ok2 || v2 != v {
					break
				}
				g++
			}
			if g-i >= 2 {
				sp.gallop, sp.gslot = g-i, v
			}
		}
		sp.memo = i > 0 && sp.gallop == 0
		for k := range sp.ops {
			if o := &sp.ops[k]; o.free(bound) {
				o.act = actBind
				bound[o.slot] = true
			} else if k == 2 && sp.ops[0].act == actBind && sp.ops[0].slot == o.slot {
				// ?x p ?x; the role check leaves no other repeat possible.
				o.act = actCheck
			}
		}
	}
	for _, v := range q.Vars {
		slot := slotOf(names, v)
		if slot == len(names) {
			return nil, fmt.Errorf("sparql: projected variable ?%s not used in the BGP", v)
		}
		c.proj = append(c.proj, slot)
		c.Roles = append(c.Roles, roles[slot]-1)
	}
	return c, nil
}

// Options are the optional inputs of one Run.
type Options struct {
	// Trace receives per-step cardinalities: execution step i (plan
	// position) records its pattern index, candidates scanned and
	// candidates matched, with Gallop set for steps resolved inside a
	// merge-intersection. The recorders are nil-safe and no-ops unless
	// the trace was armed with EnableSteps, so the untraced cost is one
	// predictable branch per candidate.
	Trace *obs.Trace
	// MaxRows, when positive, stops the run once it has found that many
	// solutions; all of them reach the sink. A caller serving a row limit
	// asks for one more than it writes, so the extra row tells it the
	// answer was truncated.
	MaxRows int
}

// Block is a run of consecutive solution rows: row i is
// IDs[i*Width:(i+1)*Width], one core.ID per column of the plan's Vars,
// core.Wildcard for an unbound one.
type Block struct {
	IDs         []core.ID
	Width, Rows int
}

// Row returns row i of the block.
func (b Block) Row(i int) []core.ID { return b.IDs[i*b.Width : (i+1)*b.Width] }

// Sink receives a run's solutions a block at a time, in emission order.
// The block's IDs are the run's buffer: valid only during the call, and
// not to be retained or modified.
type Sink func(Block)

// EachRow adapts a per-row callback to a Sink. Every row is handed over
// in one buffer, reused from row to row.
func EachRow(emit func(row []core.ID)) Sink {
	var row []core.ID
	return func(b Block) {
		row = resize(row, b.Width)
		for i := 0; i < b.Rows; i++ {
			copy(row, b.Row(i))
			emit(row)
		}
	}
}

// blockRows is the number of solutions a run collects before handing
// them to its sink.
const blockRows = 256

// errLimit unwinds a run that has found Options.MaxRows solutions.
var errLimit = errors.New("sparql: row limit reached")

// The inner-selection memo. A nested loop substitutes each inner step's
// pattern once per outer row, and outer rows repeat bindings: a star read
// object-major from POS meets each subject once per object it has. So Run
// keeps, per (step, substituted pattern), the matches of every inner
// selection that fits in its first batch, and answers a repeat from that
// record instead of the index. The slots are tagged with the run's
// generation, so a reused run starts with an empty memo without touching
// them; a pattern whose probe window is full, whose matches fill a whole
// batch, or that would overflow the arena is simply not kept.
const (
	// stepBatch is the number of triples a step drains per NextBatch; a
	// memo entry holds one batch that came back short.
	stepBatch = 64
	memoBits  = 11
	memoSlots = 1 << memoBits
	memoProbe = 8       // slots tried per pattern
	memoArena = 1 << 13 // triples kept per run
)

// memoSlot is one memoized selection: the n triples at arena[off:] are
// the matches of pat at step, valid while gen is the run's.
type memoSlot struct {
	gen, step uint32
	pat       core.Pattern
	off, n    uint32
}

// run is the mutable state of one execution of a Compiled plan. Runs are
// reused: their buffers and memo outlive the execution, their references
// to it do not.
type run struct {
	c     *Compiled
	st    Store
	vs    core.VarSelecter // nil when st cannot serve sorted streams
	ctx   context.Context
	work  int // candidates since the last look at ctx
	tr    *obs.Trace
	sink  Sink
	max   int // Options.MaxRows
	stats ExecStats
	memo  bool // memoize inner selections (not when recording a decomposition)

	regs []core.ID // the register file; core.Wildcard marks unbound
	// block holds the projected rows not yet handed to the sink, nrows of
	// them.
	block []core.ID
	nrows int
	// Merge-intersection scratch, indexed by step: a group's streams
	// occupy the positions of its steps, so nested groups never overlap.
	its  []*core.VarIter
	cand []core.ID
	// batch holds stepBatch triples per step, the buffer the step drains
	// its selection into.
	batch []core.Triple

	gen   uint32
	slots []memoSlot // memoSlots long once a multi-step plan has run
	arena []core.Triple
}

// idleRuns holds finished runs for the next execution. It is a bounded
// free list rather than a sync.Pool because a pool may drop any value
// it is handed (under the race detector it drops one Put in four), and a
// dropped run takes its memo slots, arena and step buffers with it: how
// much an execution allocated would then depend on the pool's luck. The
// list never holds more runs than were ever in flight at once; a run
// finished while it is full is left to the collector.
var idleRuns = make(chan *run, maxIdleRuns)

const maxIdleRuns = 64

// Run evaluates the plan against st and hands the solutions to sink (when
// non-nil) in blocks of up to blockRows rows, in emission order.
// Evaluation is nested-loop over the plan's order, except that maximal
// runs of consecutive patterns sharing their single free variable are
// resolved with a leapfrog merge-intersection of the sorted binding
// streams the index serves natively (core.VarSelecter), skipping
// non-joining candidates with NextGEQ instead of enumerating them. An
// inner selection that repeats is answered from the run's memo. Every
// selection is drained to its end, or closed when the run stops early,
// which hands a static index's selection state back to the index's pool
// for the next one.
//
// Run aborts with ctx.Err() once ctx is done. That is checked at step
// batch boundaries — a selection's batch of up to stepBatch triples, a
// memo replay, a round of a merge-intersection — once at least stepBatch
// candidates have passed since the last check, so the hot loops stay
// branch-cheap and a runaway query overshoots by at most about one batch
// per step.
//
//rdf:nonretaining
func Run(ctx context.Context, c *Compiled, st Store, opt Options, sink Sink) (ExecStats, error) {
	return exec(ctx, c, st, opt, sink, true)
}

//rdf:nonretaining
func exec(ctx context.Context, c *Compiled, st Store, opt Options, sink Sink, memo bool) (ExecStats, error) {
	var r *run
	select {
	case r = <-idleRuns:
	default:
		r = new(run)
	}
	r.start(ctx, c, st, opt, sink, memo)
	err := r.step(0)
	if err == errLimit {
		err = nil
	}
	r.flush()
	stats := r.stats
	r.finish()
	select {
	case idleRuns <- r:
	default:
	}
	return stats, err
}

// start readies a reused run for one execution.
func (r *run) start(ctx context.Context, c *Compiled, st Store, opt Options, sink Sink, memo bool) {
	r.c, r.st, r.ctx, r.tr, r.sink, r.max = c, st, ctx, opt.Trace, sink, opt.MaxRows
	r.vs, _ = st.(core.VarSelecter)
	r.stats, r.memo, r.work = ExecStats{}, memo, stepBatch
	r.regs = resize(r.regs, c.nslots)
	for i := range r.regs {
		r.regs[i] = core.Wildcard
	}
	r.nrows = 0
	if sink != nil {
		r.block = resize(r.block, blockRows*len(c.proj))
	}
	r.cand = resize(r.cand, len(c.steps))
	r.its = resize(r.its, len(c.steps))
	r.batch = resize(r.batch, len(c.steps)*stepBatch)
	if memo && len(c.steps) > 1 {
		if r.slots == nil {
			r.slots = make([]memoSlot, memoSlots)
		}
		if r.gen++; r.gen == 0 {
			clear(r.slots)
			r.gen = 1
		}
		r.arena = r.arena[:0]
	}
}

// finish drops the run's references to the execution it served, so an
// idle run pins no store, plan or callback.
func (r *run) finish() {
	r.c, r.st, r.vs, r.ctx, r.tr, r.sink = nil, nil, nil, nil, nil, nil
	clear(r.its)
}

// resize returns s with length n, reusing its array when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// poll is called before each step batch of n candidates: a batch a
// selection returned, a memo replay, a round of a merge-intersection. It
// reports the context's error once it is done, looking only once at
// least stepBatch candidates have passed since it last looked: the look
// costs more than a short replay it would guard. It asks Err rather than
// receiving from Done, which many contexts build only when asked for.
//
//rdf:hotpath
func (r *run) poll(n int) error {
	if r.work += n; r.work < stepBatch {
		return nil
	}
	r.work = 0
	return r.ctx.Err()
}

// flush hands the collected rows to the sink.
func (r *run) flush() {
	if r.nrows > 0 {
		r.sink(Block{IDs: r.block[:r.nrows*len(r.c.proj)], Width: len(r.c.proj), Rows: r.nrows})
		r.nrows = 0
	}
}

// solution records the row the registers now hold, handing a full block
// to the sink; it unwinds the run with errLimit at Options.MaxRows.
//
//rdf:hotpath
func (r *run) solution() error {
	r.stats.Results++
	if r.sink != nil {
		row := r.block[r.nrows*len(r.c.proj):]
		for k, slot := range r.c.proj {
			row[k] = r.regs[slot]
		}
		if r.nrows++; r.nrows == blockRows {
			r.flush()
		}
	}
	if r.stats.Results == r.max {
		return errLimit
	}
	return nil
}

// step evaluates plan position i under the registers bound so far.
//
//rdf:hotpath
func (r *run) step(i int) error {
	if i == len(r.c.steps) {
		return r.solution()
	}
	sp := &r.c.steps[i]
	if sp.gallop > 0 && r.vs != nil {
		if done, err := r.gallop(i, sp); done {
			r.regs[sp.gslot] = core.Wildcard
			return err
		}
	}
	r.stats.PatternsIssued++
	r.tr.StepIssued(i, sp.pattern, false)
	p := sp.substitute(r.regs)
	var slot *memoSlot
	if r.memo && sp.memo {
		var hit bool
		if slot, hit = r.lookup(i, p); hit {
			r.stats.Replayed++
			r.tr.StepReplayed(i)
			err := r.poll(int(slot.n))
			if err == nil {
				err = r.scan(i, sp, r.arena[slot.off:slot.off+slot.n])
			}
			sp.unbind(r.regs)
			return err
		}
	}
	it := r.st.Select(p)
	buf := r.batch[i*stepBatch : (i+1)*stepBatch]
	k := it.NextBatch(buf)
	if slot != nil && k < len(buf) && len(r.arena)+k <= memoArena {
		*slot = memoSlot{gen: r.gen, step: uint32(i), pat: p, off: uint32(len(r.arena)), n: uint32(k)}
		r.arena = append(r.arena, buf[:k]...)
	}
	var err error
	// The call that returns 0, after a short batch too, hands the state
	// back; a run that stops early (the context, the row limit) closes
	// the iterator, which hands it back at once.
	for k > 0 {
		if err = r.poll(k); err == nil {
			err = r.scan(i, sp, buf[:k])
		}
		if err != nil {
			it.Close()
			break
		}
		k = it.NextBatch(buf)
	}
	sp.unbind(r.regs)
	return err
}

// lookup finds step i's memo entry for p. On a miss it returns the free
// slot a complete result may be kept in, nil when the probe window is
// full.
//
//rdf:hotpath
func (r *run) lookup(i int, p core.Pattern) (*memoSlot, bool) {
	h := (uint64(p.S)<<32 | uint64(p.O)) * 0x9e3779b97f4a7c15
	h = (h ^ (uint64(p.P)<<32 | uint64(i))) * 0xbf58476d1ce4e5b9
	for k := uint64(0); k < memoProbe; k++ {
		s := &r.slots[(h>>(64-memoBits)+k)&(memoSlots-1)]
		if s.gen != r.gen {
			return s, false
		}
		if s.pat == p && s.step == uint32(i) {
			return s, true
		}
	}
	return nil, false
}

// scan runs one batch of step i's matches, fresh from the index or
// replayed from the memo, through the step's bind and check actions and
// continues below for every candidate that survives.
//
//rdf:hotpath
func (r *run) scan(i int, sp *step, ts []core.Triple) error {
	for _, t := range ts {
		r.stats.TriplesMatched++
		r.tr.StepScanned(i)
		if sp.ops[0].accept(r.regs, t.S) && sp.ops[1].accept(r.regs, t.P) && sp.ops[2].accept(r.regs, t.O) {
			r.tr.StepMatched(i)
			if err := r.step(i + 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// unbind resets the registers the step binds, restoring the invariant
// that a slot is unbound on entry to the step that binds it.
//
//rdf:hotpath
func (sp *step) unbind(regs []core.ID) {
	for _, o := range sp.ops {
		if o.act == actBind {
			regs[o.slot] = core.Wildcard
		}
	}
}

// gallop intersects the sorted binding streams of the group of steps
// starting at i, continuing below the group for every common value with
// the group's register bound to it. done is false when the store cannot
// serve one of the streams (the caller falls back to nested iteration).
//
//rdf:hotpath
func (r *run) gallop(i int, sp *step) (done bool, err error) {
	g := sp.gallop
	its, cand := r.its[i:i+g], r.cand[i:i+g]
	for k := range its {
		it, ok := r.vs.SelectVarSorted(r.c.steps[i+k].substitute(r.regs))
		if !ok {
			closeStreams(its[:k])
			return false, nil
		}
		its[k] = it
	}
	defer closeStreams(its)
	r.stats.PatternsIssued += g
	for k := range its {
		r.tr.StepIssued(i+k, r.c.steps[i+k].pattern, true)
	}
	// Leapfrog: keep one candidate per stream; advance every stream below
	// the maximum with a NextGEQ skip, and report when all candidates
	// agree. Values are distinct within a stream, so each agreement is
	// exactly one solution.
	for k, it := range its {
		c, ok := it.Next()
		r.tr.StepScanned(i + k)
		if !ok {
			return true, nil
		}
		cand[k] = c
	}
	for {
		if err := r.poll(1); err != nil {
			return true, err
		}
		maxv := cand[0]
		for _, c := range cand[1:] {
			maxv = max(maxv, c)
		}
		agree := true
		for k, it := range its {
			if cand[k] < maxv {
				c, ok := it.NextGEQ(maxv)
				r.tr.StepScanned(i + k)
				if !ok {
					return true, nil
				}
				cand[k] = c
				if c != maxv {
					agree = false
				}
			}
		}
		if !agree {
			continue
		}
		r.stats.TriplesMatched += g
		for k := range its {
			r.tr.StepMatched(i + k)
		}
		r.regs[sp.gslot] = maxv
		if err := r.step(i + g); err != nil {
			return true, err
		}
		c, ok := its[0].Next()
		r.tr.StepScanned(i)
		if !ok {
			return true, nil
		}
		cand[0] = c
	}
}

// closeStreams hands a group's binding streams back to their index.
func closeStreams(its []*core.VarIter) {
	for _, it := range its {
		it.Close()
	}
}

// recorder is a Store that logs every selection pattern issued on it.
// Embedding the interface hides the index's VarSelecter, so a plan run
// over a recorder evaluates with nested loops only.
type recorder struct {
	Store
	issued []core.Pattern
}

func (r *recorder) Select(p core.Pattern) *core.Iterator {
	r.issued = append(r.issued, p)
	return r.Store.Select(p)
}

// Decompose runs the query under its Plan order with nested loops and
// returns the sequence of atomic selection patterns it issued, in
// execution order. This is the paper's Table 6 methodology: the same
// decomposition is replayed against each index so that all systems
// execute identical pattern sequences. It is the logical decomposition:
// the run keeps no memo, so a repeated inner pattern is recorded (and
// replayed) every time, and its length is Run's PatternsIssued.
func Decompose(q Query, st Store) ([]core.Pattern, error) {
	c, err := Compile(q, Plan(q))
	if err != nil {
		return nil, err
	}
	rec := &recorder{Store: st}
	_, err = exec(context.Background(), c, rec, Options{}, nil, false)
	return rec.issued, err
}

// Replay executes a pre-computed pattern decomposition against a store,
// draining every iterator, and returns the total matches. All indexes
// replay the same sequence, which is how Table 6 compares raw speed.
func Replay(patterns []core.Pattern, st Store) int {
	total := 0
	for _, p := range patterns {
		total += st.Select(p).Count()
	}
	return total
}

// Bindings, StreamWithOrder and results.Writer's map-taking row method
// are the row API from before Compile. benchmark/ladder/layers.go compiles
// against them and benchmark/ may not change in a PR that claims a gain;
// nothing else calls them. Delete all three once layers.go uses Run.
type Bindings map[string]core.ID

// StreamWithOrder adapts Run to the Bindings callback; see Bindings.
func StreamWithOrder(ctx context.Context, q Query, st Store, order []int, emit func(Bindings)) (ExecStats, error) {
	c, err := Compile(q, order)
	if err != nil {
		return ExecStats{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	b := Bindings{}
	return Run(ctx, c, st, Options{}, EachRow(func(row []core.ID) {
		for k, v := range q.Vars {
			b[v] = row[k]
		}
		emit(b)
	}))
}
