package logical

import (
	"context"
	"sync"
	"testing"

	"paradigms/internal/plan"
	"paradigms/internal/storage"
	"paradigms/internal/tpch"
)

var (
	benchOnce sync.Once
	benchDB   *storage.Database
)

func benchTPCH() *storage.Database {
	benchOnce.Do(func() { benchDB = tpch.Generate(0.1, 0) })
	return benchDB
}

// BenchmarkSQLVsPlan compares each lowered SQL query against the
// hand-assembled internal/plan equivalent, single-threaded at the
// default vector size. The acceptance bound of the SQL subsystem is the
// same as the operator-layer port's: lowered Q6 and Q3 within 10% of
// the hand-written plans. Q18 stays about 2× the hand plan: both
// aggregate lineitem before reading orders, but the SQL plan builds a
// hash table over all of orders ⋈ customer for the deferred per-group
// lookups, where the hand plan builds one over the few groups that
// pass HAVING and streams orders past it.
func BenchmarkSQLVsPlan(b *testing.B) {
	db := benchTPCH()
	ctx := context.Background()
	for _, name := range []string{"Q6", "Q3", "Q5", "Q18"} {
		text, _ := SQLText("tpch", name)
		pl, err := Prepare(db, text)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/sql", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pl.Execute(ctx, 1, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/plan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				switch name {
				case "Q6":
					plan.Q6(db, 1, 0)
				case "Q3":
					plan.Q3(db, 1, 0)
				case "Q5":
					plan.Q5(db, 1, 0)
				case "Q18":
					plan.Q18(db, 1, 0)
				}
			}
		})
	}
}

// BenchmarkSQLFrontend isolates the parse → bind → optimize → lower
// cost (no execution): planning overhead per ad-hoc statement.
func BenchmarkSQLFrontend(b *testing.B) {
	db := benchTPCH()
	text, _ := SQLText("tpch", "Q5")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Prepare(db, text); err != nil {
			b.Fatal(err)
		}
	}
}
