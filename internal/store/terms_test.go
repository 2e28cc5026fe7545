package store

import (
	"bytes"
	"fmt"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/rdf"
)

// TestTermTable checks the table against a map over requests that
// collide in their home slots, grow it from its first size past several
// doublings, reuse the same IDs in both roles, hit the maxTerms cap, and
// cross a generation wrap.
func TestTermTable(t *testing.T) {
	var tt TermTable
	check := func(want map[uint64]string) {
		t.Helper()
		for key, enc := range want {
			got, ok := tt.Get(core.Role(key>>32), core.ID(key))
			if !ok || string(got) != enc {
				t.Fatalf("Get(%d, %d) = %q, %v; want %q", key>>32, uint32(key), got, ok, enc)
			}
		}
		for _, id := range []core.ID{3, 1 << 20, core.Wildcard} {
			if _, ok := want[uint64(id)]; !ok {
				if got, ok := tt.Get(core.RoleSO, id); ok {
					t.Fatalf("Get(SO, %d) = %q for a term not added this request", id, got)
				}
			}
		}
	}
	// request caches n terms, both roles of each ID in ids, which it
	// extends with sequential IDs.
	request := func(ids []core.ID, n int, salt string) map[uint64]string {
		tt.Reset()
		want := map[uint64]string{}
		for i := 0; i < n; i++ {
			id := core.ID(100000 + i/2)
			if i/2 < len(ids) {
				id = ids[i/2]
			}
			role := core.Role(i % 2)
			if _, ok := tt.Get(role, id); ok {
				t.Fatalf("request %s: (%d, %d) cached before Add", salt, role, id)
			}
			enc := fmt.Sprintf("%s-%d-%d", salt, role, id)
			tt.Add(role, id, []byte(enc))
			want[uint64(role)<<32|uint64(id)] = enc
		}
		check(want)
		return want
	}
	// Subject/object IDs that share their home slot in the first table.
	var colliding []core.ID
	first := TermTable{shift: 64 - 6}
	for id := core.ID(0); len(colliding) < 8; id++ {
		if first.home(uint64(id)) == first.home(0) {
			colliding = append(colliding, id)
		}
	}
	request(colliding, 16, "a")
	if len(tt.slots) != minTermSlots || minTermSlots != 1<<6 {
		t.Fatalf("%d slots after 16 terms, want the first size %d", len(tt.slots), minTermSlots)
	}
	request(colliding, 3000, "b")
	if len(tt.slots) != 8192 {
		t.Fatalf("%d slots after 3000 terms, want 8192", len(tt.slots))
	}
	want := request(colliding, 40, "c") // a small request after a big one: stale slots everywhere
	slots := len(tt.slots)

	// The generation wrap clears the slots: tags written one cycle of
	// generations earlier would otherwise read as live again.
	tt.gen = maxGen
	tt.Reset()
	if tt.gen != 1 || len(tt.slots) != slots {
		t.Fatalf("after the wrap: gen %d, %d slots", tt.gen, len(tt.slots))
	}
	for key := range want {
		if got, ok := tt.Get(core.Role(key>>32), core.ID(key)); ok {
			t.Fatalf("(%d, %d) = %q survived the wrap", key>>32, uint32(key), got)
		}
	}
	request(nil, 100, "d")

	tt.Reset()
	for i := 0; i < maxTerms+10; i++ {
		tt.Add(core.RoleSO, core.ID(i), []byte("x"))
	}
	if _, ok := tt.Get(core.RoleSO, maxTerms+5); ok || tt.n != maxTerms {
		t.Fatalf("%d terms cached past the cap of %d", tt.n, maxTerms)
	}
	if _, ok := tt.Get(core.RoleSO, maxTerms-1); !ok {
		t.Fatal("the last term under the cap is missing")
	}
}

// twinStores returns two stores whose subject/object and predicate
// dictionaries give the same IDs different terms, so a term served from
// the wrong request's table shows.
func twinStores(t *testing.T, n int) [2]*Store {
	t.Helper()
	var out [2]*Store
	for k, prefix := range []string{"a", "b"} {
		so, p := make([]string, n), make([]string, 4)
		for i := range so {
			so[i] = fmt.Sprintf("<http://%s/e%06d>", prefix, i)
		}
		for i := range p {
			p[i] = fmt.Sprintf("<http://%s/p%d>", prefix, i)
		}
		sod, err := dict.New(so, dict.DefaultBucketSize)
		if err != nil {
			t.Fatal(err)
		}
		pd, err := dict.New(p, dict.DefaultBucketSize)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = &Store{Dicts: &rdf.Dicts{SO: sod, P: pd}}
	}
	return out
}

// TestRowsTermTable drives the row renderer's term table through growth
// and SO/P collisions in one wide request, then through more than two
// generation wraps of one reused Rows, alternating stores that render the
// same IDs differently: every row must carry its own store's terms.
func TestRowsTermTable(t *testing.T) {
	stores := twinStores(t, 3000)
	row := func(prefix string, id int) string {
		return fmt.Sprintf(`{"s":"<http://%s/e%06d>","p":"<http://%s/p%d>"}`+"\n", prefix, id, prefix, id%4)
	}
	vars, roles := []string{"s", "p"}, []core.Role{core.RoleSO, core.RoleP}
	var r Rows
	rend := bindRows(&r, stores[0], vars, roles)
	var out []byte
	var want bytes.Buffer
	for pass := 0; pass < 2; pass++ {
		for id := 0; id < 3000; id++ {
			out = r.Write(out, []core.ID{core.ID(id), core.ID(id % 4)}, 1)
			want.WriteString(row("a", id))
		}
	}
	r.Release()
	rend.Release()
	if !bytes.Equal(out, want.Bytes()) {
		t.Fatal("wide request: rows differ from their terms")
	}

	for i := 0; i < 2*maxGen+10; i++ {
		k := i % 2
		rend := bindRows(&r, stores[k], vars, roles)
		id := i % 7
		out = r.Write(out[:0], []core.ID{core.ID(id), core.ID(id % 4), core.ID(id), core.ID(id % 4)}, 2)
		r.Release()
		rend.Release()
		if w := row([]string{"a", "b"}[k], id); string(out) != w+w {
			t.Fatalf("cycle %d: %q, want two of %q", i, out, w)
		}
	}
}
