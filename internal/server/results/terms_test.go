package results

import (
	"fmt"
	"testing"

	"rdfindexes/internal/core"
)

// TestTermTable checks the table against a map over requests that
// collide in their home slots, grow it from its first size past several
// doublings, reuse the same IDs in both roles, hit the maxTerms cap, and
// cross a generation wrap.
func TestTermTable(t *testing.T) {
	var tt termTable
	check := func(want map[uint64]string) {
		t.Helper()
		for key, enc := range want {
			got, ok := tt.get(core.Role(key>>32), core.ID(key))
			if !ok || string(got) != enc {
				t.Fatalf("get(%d, %d) = %q, %v; want %q", key>>32, uint32(key), got, ok, enc)
			}
		}
		for _, id := range []core.ID{3, 1 << 20, core.Wildcard} {
			if _, ok := want[uint64(id)]; !ok {
				if got, ok := tt.get(core.RoleSO, id); ok {
					t.Fatalf("get(SO, %d) = %q for a term not added this request", id, got)
				}
			}
		}
	}
	// request caches n terms, both roles of each ID in ids, which it
	// extends with sequential IDs.
	request := func(ids []core.ID, n int, salt string) map[uint64]string {
		tt.reset()
		want := map[uint64]string{}
		for i := 0; i < n; i++ {
			id := core.ID(100000 + i/2)
			if i/2 < len(ids) {
				id = ids[i/2]
			}
			role := core.Role(i % 2)
			if _, ok := tt.get(role, id); ok {
				t.Fatalf("request %s: (%d, %d) cached before add", salt, role, id)
			}
			enc := fmt.Sprintf("%s-%d-%d", salt, role, id)
			tt.add(role, id, []byte(enc))
			want[uint64(role)<<32|uint64(id)] = enc
		}
		check(want)
		return want
	}
	// Subject/object IDs that share their home slot in the first table.
	var colliding []core.ID
	first := termTable{shift: 64 - 6}
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
	tt.reset()
	if tt.gen != 1 || len(tt.slots) != slots {
		t.Fatalf("after the wrap: gen %d, %d slots", tt.gen, len(tt.slots))
	}
	for key := range want {
		if got, ok := tt.get(core.Role(key>>32), core.ID(key)); ok {
			t.Fatalf("(%d, %d) = %q survived the wrap", key>>32, uint32(key), got)
		}
	}
	request(nil, 100, "d")

	tt.reset()
	for i := 0; i < maxTerms+10; i++ {
		tt.add(core.RoleSO, core.ID(i), []byte("x"))
	}
	if _, ok := tt.get(core.RoleSO, maxTerms+5); ok || tt.n != maxTerms {
		t.Fatalf("%d terms cached past the cap of %d", tt.n, maxTerms)
	}
	if _, ok := tt.get(core.RoleSO, maxTerms-1); !ok {
		t.Fatal("the last term under the cap is missing")
	}
}
