package gen

import (
	"context"

	"rdfindexes/internal/core"
	"rdfindexes/internal/sparql"
)

// execCount runs a query and returns the number of solutions.
func execCount(q sparql.Query, x core.Index) (int, error) {
	c, err := sparql.Compile(q, sparql.Plan(q))
	if err != nil {
		return 0, err
	}
	stats, err := sparql.Run(context.Background(), c, x, sparql.Options{}, nil)
	return stats.Results, err
}
