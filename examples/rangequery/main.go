// Command rangequery demonstrates the range queries of Section 3.1 of
// the paper on a WatDiv-like e-commerce graph: numeric literal objects
// (prices, ratings) receive consecutive IDs in increasing value order,
// and the auxiliary R structure translates a value interval into an ID
// interval with two compressed-domain searches, after which the regular
// select machinery produces the matches.
package main

import (
	"fmt"
	"log"

	"rdfindexes"
	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
)

func main() {
	data := gen.WatDiv(2000, 7)
	d := data.Dataset
	fmt.Printf("WatDiv-like graph: %d triples, %d products, %d numeric values\n",
		d.Len(), len(data.Products), len(data.NumericValues))

	built, err := rdfindexes.Build(d, rdfindexes.Layout2Tp)
	if err != nil {
		log.Fatal(err)
	}
	x := built.(rdfindexes.RangeSelecter) // every layout is; 2Tp seeks the interval on POS
	r := data.R()
	fmt.Printf("2Tp index: %.2f bits/triple; R structure adds %.4f bits/triple\n\n",
		rdfindexes.BitsPerTriple(built), float64(r.SizeBits())/float64(d.Len()))

	for _, rq := range []struct {
		name   string
		pred   core.ID
		lo, hi uint64
	}{
		{"products priced 100..500 cents", gen.WdPrice, 100, 500},
		{"products priced 50000..60000 cents", gen.WdPrice, 50000, 60000},
		{"reviews rated 9..10", gen.WdRating, 9, 10},
		{"reviews rated exactly 0", gen.WdRating, 0, 0},
		{"empty range (price 1..2)", gen.WdPrice, 1, 2},
	} {
		it := rdfindexes.SelectValueRange(x, r, rq.pred, rq.lo, rq.hi)
		count := 0
		var sample []rdfindexes.Triple
		for {
			t, ok := it.Next()
			if !ok {
				break
			}
			if count < 2 {
				sample = append(sample, t)
			}
			count++
		}
		fmt.Printf("%-38s -> %5d matches", rq.name, count)
		for _, t := range sample {
			fmt.Printf("  e.g. subject %d has value %d", t.S, r.Value(t.O))
		}
		fmt.Println()
	}
}
