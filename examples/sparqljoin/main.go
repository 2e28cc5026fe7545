// Command sparqljoin generates a LUBM-like university graph (LUBM is
// itself a synthetic benchmark; see DESIGN.md), builds the paper's 2Tp
// index over it, and answers SPARQL basic graph patterns through the
// selectivity-driven planner, which serializes each query into the atomic
// triple selection patterns the index resolves — the methodology of
// Table 6 of the paper.
package main

import (
	"context"
	"fmt"
	"log"

	"rdfindexes"
	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/sparql"
)

func main() {
	data := gen.LUBM(5, 42)
	d := data.Dataset
	st := d.ComputeStats()
	fmt.Printf("LUBM-like graph: %d triples, %d subjects, %d predicates, %d objects\n",
		st.Triples, st.DistinctS, st.DistinctP, st.DistinctO)

	x, err := rdfindexes.Build(d, rdfindexes.Layout2Tp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2Tp index: %.2f bits/triple\n\n", rdfindexes.BitsPerTriple(x))

	dept := data.Departments[0]
	uni := data.Universities[0]
	queries := []string{
		// Professors of a department with their advisees (star join).
		fmt.Sprintf("SELECT ?prof ?student WHERE { ?prof <%d> <%d> . ?student <%d> ?prof . }",
			gen.LubmWorksFor, dept, gen.LubmAdvisor),
		// Members of a university through its departments (chain join).
		fmt.Sprintf("SELECT ?x ?d WHERE { ?x <%d> ?d . ?d <%d> <%d> . }",
			gen.LubmMemberOf, gen.LubmSubOrganizationOf, uni),
		// Graduate students and the universities they came from.
		fmt.Sprintf("SELECT ?s ?u WHERE { ?s <%d> <%d> . ?s <%d> ?u . }",
			gen.LubmType, gen.LubmClassGradStudent, gen.LubmUndergraduateDegreeFrom),
	}

	for _, qs := range queries {
		q, err := sparql.Parse(qs)
		if err != nil {
			log.Fatalf("parse %q: %v", qs, err)
		}
		plan, err := sparql.Compile(q, sparql.Plan(q))
		if err != nil {
			log.Fatalf("compile %q: %v", qs, err)
		}
		fmt.Printf("query: %s\n", q)
		fmt.Printf("  plan order: %v\n", plan.Order)
		shown := 0
		stats, err := sparql.Run(context.Background(), plan, x, sparql.Options{}, sparql.EachRow(func(row []core.ID) {
			if shown < 3 {
				fmt.Printf("  solution: %v = %v\n", q.Vars, row)
				shown++
			}
		}))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d solutions; %d atomic patterns issued; %d triples matched\n\n",
			stats.Results, stats.PatternsIssued, stats.TriplesMatched)
	}
}
