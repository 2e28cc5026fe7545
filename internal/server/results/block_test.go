package results

import (
	"bytes"
	"math/rand"
	"testing"

	"rdfindexes/internal/core"
)

// blockRows are n random rows of a predicate column between two
// subject/object columns, drawn so that rows repeat a prefix of the row
// above, cells go unbound, and the distinct terms outnumber what the
// term table admits in one request.
func blockRows(rng *rand.Rand, n, terms int) []core.ID {
	ids := make([]core.ID, 0, 3*n)
	row := []core.ID{0, 0, 0}
	for i := 0; i < n; i++ {
		// Keep a prefix of the previous row, redraw the rest.
		for j := rng.Intn(4); j < 3; j++ {
			switch {
			case rng.Intn(9) == 0:
				row[j] = core.Wildcard
			case j == 1:
				row[j] = core.ID(rng.Intn(len(testPredicates)))
			case rng.Intn(3) == 0:
				row[j] = core.ID(rng.Intn(64)) // a hot term
			default:
				row[j] = core.ID(rng.Intn(terms))
			}
		}
		ids = append(ids, row...)
	}
	return ids
}

// TestBlockMatchesRows requires a block-rendered body to be byte for byte
// the body of the same rows written one at a time — buffered, and flushed
// after every row — in the four formats: across unbound
// columns, bodies several times StreamAt and a request past the
// term table's capacity.
func TestBlockMatchesRows(t *testing.T) {
	const terms = 20000
	st, _ := termStore(t, manyTerms(terms))
	rng := rand.New(rand.NewSource(61))
	ids := blockRows(rng, 24000, terms)
	rows := len(ids) / 3
	vars := []string{"s", "p", "o"}
	roles := []core.Role{core.RoleSO, core.RoleP, core.RoleSO}

	bodies := map[string][3]bytes.Buffer{}
	for _, f := range Formats() {
		var b [3]bytes.Buffer
		for mode := range b {
			wr := Acquire(f, st, &b[mode])
			wr.Begin(vars, roles...)
			for lo := 0; lo < rows; {
				n := 1
				switch mode {
				case 2:
					n = min(1+rng.Intn(300), rows-lo)
				}
				if n == 1 {
					wr.WriteRow(ids[3*lo : 3*lo+3])
					if mode == 0 { // the reference: nothing stays buffered
						wr.Flush()
					}
				} else {
					wr.WriteBlock(ids[3*lo:3*(lo+n)], n)
				}
				lo += n
			}
			wr.End()
			wr.Flush()
			wr.Release()
		}
		bodies[f.String()] = b
	}

	for name, b := range bodies {
		ref := b[0].Bytes()
		if len(ref) < 4*StreamAt {
			t.Fatalf("%s: a %d-byte body does not cross several flushes", name, len(ref))
		}
		for mode, label := range []string{"", "row by row", "by blocks"} {
			got := b[mode].Bytes()
			if mode == 0 || bytes.Equal(ref, got) {
				continue
			}
			i := 0
			for i < len(ref) && i < len(got) && ref[i] == got[i] {
				i++
			}
			t.Errorf("%s: body written %s differs from the reference at byte %d:\nwant %q\ngot  %q",
				name, label, i, ref[max(i-80, 0):min(i+80, len(ref))], got[max(i-80, 0):min(i+80, len(got))])
		}
	}
}
