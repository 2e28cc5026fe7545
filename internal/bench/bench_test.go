package bench

import (
	"bytes"
	"strings"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
)

// tiny returns a configuration small enough for unit-test latency.
func tiny() Config { return Config{Triples: 8000, Queries: 60, Runs: 1, Seed: 1} }

func TestAllExperimentsProduceTables(t *testing.T) {
	experiments := map[string]func(Config) ([]*Table, error){
		"table1": Table1, "table2": Table2, "table3": Table3,
		"table4": Table4, "table5": Table5, "table6": Table6,
		"fig6a": Fig6a, "fig6b": Fig6b, "fig7": Fig7,
		"range": RangeQueries, "ablation": Ablation, "breakdown": Breakdown,
	}
	for name, run := range experiments {
		t.Run(name, func(t *testing.T) {
			tables, err := run(tiny())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", name)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s: table %q has no rows", name, tb.Title)
				}
				var buf bytes.Buffer
				tb.Fprint(&buf)
				out := buf.String()
				if !strings.Contains(out, tb.Header[0]) {
					t.Fatalf("%s: rendering lost the header: %q", name, out)
				}
			}
		})
	}
}

func TestTimePatterns(t *testing.T) {
	d, err := gen.GeneratePreset("dblp", 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	sample := gen.SampleTriples(d, 50, 2)
	pats := gen.PatternWorkload(sample, core.ShapeSPx)
	ns, matches := TimePatterns(x, pats, 2)
	if matches < len(pats) {
		t.Fatalf("matched %d < %d queries", matches, len(pats))
	}
	if ns <= 0 {
		t.Fatalf("non-positive ns/triple %v", ns)
	}
}

func TestFormatHelpers(t *testing.T) {
	if N(1234567) != "1,234,567" || N(12) != "12" || N(123) != "123" || N(1000) != "1,000" {
		t.Fatalf("N formatting wrong: %s %s %s %s", N(1234567), N(12), N(123), N(1000))
	}
	if F(0) != "0" || F(3.14159) != "3.14" || F(42.5) != "42.5" || F(1234) != "1234" {
		t.Fatalf("F formatting wrong: %s %s %s %s", F(0), F(3.14159), F(42.5), F(1234))
	}
}
