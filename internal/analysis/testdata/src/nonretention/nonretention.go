// Package nonretention is the golden fixture for the nonretention
// analyzer.
package nonretention

// ID mirrors core.ID: a plain value type, so element reads are copies.
type ID uint64

// Row mirrors the solution row sparql.Run hands to emit: one slice,
// reused for every solution.
type Row []ID

var (
	keep  Row
	saved []Row
	cb    func(Row)
	arena struct{ b []byte }
)

func handle(Row) {}

// stream reuses one row across emit calls, as sparql.Run does.
//
//rdf:nonretaining
func stream(n int, emit func(Row)) {
	b := make(Row, 1)
	for i := 0; i < n; i++ {
		b[0] = ID(i)
		emit(b)
	}
}

func callers(ch chan Row) {
	var last Row
	stream(3, func(b Row) {
		last = b // want "assigned outside the callback"
		_ = last
	})
	stream(3, func(b Row) {
		v := b[0] // element copy: no diagnostic
		_ = v
	})
	stream(3, func(b Row) {
		local := b // local alias dies with the callback: no diagnostic
		_ = local
	})
	stream(3, func(b Row) {
		keep = b // want "assigned outside the callback"
	})
	stream(3, func(b Row) {
		saved = append(saved, b) // want "assigned outside the callback"
	})
	stream(3, func(b Row) {
		ch <- b // want "sent on a channel"
	})
	stream(3, func(b Row) {
		go handle(b) // want "captured by a goroutine"
	})
	var lastAllowed Row
	stream(3, func(b Row) {
		lastAllowed = b //rdf:allow(this consumer checks row identity, not contents)
		_ = lastAllowed
	})
}

// badRetainer breaks its own annotation: the callback must not outlive
// the call.
//
//rdf:nonretaining
func badRetainer(emit func(Row)) {
	cb = emit // want "assigned outside the callback"
	emit(nil)
}

// extractAppend follows the append contract: growing and returning the
// caller's buffer is not retention.
//
//rdf:nonretaining
func extractAppend(buf []byte, id ID) ([]byte, bool) {
	buf = append(buf, byte(id))
	return buf, true
}

// badExtract parks the caller's buffer in a global arena.
//
//rdf:nonretaining
func badExtract(buf []byte) {
	arena.b = buf // want "assigned outside the callback"
}
