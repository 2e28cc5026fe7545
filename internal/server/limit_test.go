package server

import (
	"bytes"
	"context"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/server/results"
	"rdfindexes/internal/sparql"
)

// TestExecuteLimitInBlock cuts answers with row limits that fall inside,
// at the edges of and past the executor's blocks, and requires the body
// the block path writes to equal the reference (the first limit rows of
// the full answer, written one at a time) with the row count and the
// truncated flag the per-row limit check gave: truncated exactly when the
// answer has more rows than the limit.
func TestExecuteLimitInBlock(t *testing.T) {
	const total = 700
	st := padStore(t, total-1, 3)
	q, err := sparql.Parse(mustTranslate(t, st, padQuery))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sparql.Compile(q, sparql.Plan(q))
	if err != nil {
		t.Fatal(err)
	}
	width := len(plan.Vars)
	var all []core.ID
	if _, rows, _, err := execute(context.Background(), plan, st, nil, -1, byRow(width, func(row []core.ID) {
		all = append(all, row...)
	})); err != nil || rows != total {
		t.Fatalf("full answer: %d rows, %v; want %d", rows, err, total)
	}
	for _, f := range []results.Format{results.JSON, results.TSV} {
		for _, limit := range []int{-1, 0, 1, 100, 255, 256, 257, 300, 511, 512, 513, total - 1, total, total + 1} {
			n := total
			if limit >= 0 {
				n = min(limit, total)
			}
			var want, got bytes.Buffer
			ref := results.Acquire(f, st, &want)
			ref.Begin(plan.Vars, plan.Roles...)
			for i := 0; i < n; i++ {
				ref.WriteRow(all[i*width : (i+1)*width])
			}
			ref.End()
			ref.Flush()
			ref.Release()

			wr := results.Acquire(f, st, &got)
			wr.Begin(plan.Vars, plan.Roles...)
			_, rows, truncated, err := execute(context.Background(), plan, st, nil, limit, wr.WriteBlock)
			wr.End()
			wr.Flush()
			wr.Release()
			if err != nil || rows != n || truncated != (limit >= 0 && total > limit) {
				t.Errorf("%v limit %d: rows %d, truncated %v, err %v; want %d, %v", f, limit, rows, truncated, err, n, total > limit)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Errorf("%v limit %d: the block path wrote %d bytes, the reference %d", f, limit, got.Len(), want.Len())
			}
		}
	}
}
