package paradigms

import (
	"context"
	"testing"

	"paradigms/internal/compiled"
	"paradigms/internal/exchange"
	"paradigms/internal/hybrid"
	"paradigms/internal/logical"
	"paradigms/internal/sqlcheck"
	"paradigms/internal/storage"
)

// danglingOrders returns the TPC-H database with every 7th orders row
// removed, so about one lineitem group in seven has no order to join:
// the case where an inner join drops whole groups, which the generated
// data (every foreign key matches) never exercises.
func danglingOrders(t *testing.T) *DB {
	t.Helper()
	src, _ := sqlDBs()
	db := storage.NewDatabase(src.Name, src.ScaleFactor)
	for _, name := range src.Relations() {
		rel := src.Rel(name)
		if name == "orders" {
			var keep []int
			for i := 0; i < rel.Rows(); i++ {
				if i%7 != 3 {
					keep = append(keep, i)
				}
			}
			rel = rel.Gather(keep)
		}
		db.Add(rel)
	}
	return db
}

// collectSink gathers a streamed result.
type collectSink struct{ rows [][]int64 }

func (s *collectSink) SetCols([]logical.OutCol) error { return nil }
func (s *collectSink) PushRows(rows [][]int64) error {
	for _, r := range rows {
		s.rows = append(s.rows, append([]int64(nil), r...))
	}
	return nil
}

// TestDeferredJoinDanglingKeys: with deferred joins (the orders probe
// of Q18-shaped texts runs once per group after the aggregation), a
// group whose key has no build row must vanish exactly as it would
// under the per-row inner join, on every engine, materialized and
// streamed, and through a 2-shard cluster (partial mode). The texts
// cover HAVING evaluated before the deferred lookups (aggregates only),
// after them (it reads the demoted c_custkey), and no HAVING at all
// (truly incremental streaming).
func TestDeferredJoinDanglingKeys(t *testing.T) {
	db := danglingOrders(t)
	texts := []string{
		`select c_custkey, o_orderkey, o_orderdate, o_totalprice, sum(l_quantity) as sum_qty
from customer, orders, lineitem
where c_custkey = o_custkey and o_orderkey = l_orderkey
group by c_custkey, o_orderkey, o_orderdate, o_totalprice
having sum(l_quantity) > 150
order by o_totalprice desc, o_orderdate, o_orderkey
limit 100`,
		`select c_custkey, o_orderkey, o_totalprice, sum(l_quantity), count(*)
from customer, orders, lineitem
where c_custkey = o_custkey and o_orderkey = l_orderkey
group by c_custkey, o_orderkey, o_totalprice
having sum(l_quantity) > 100 and c_custkey < 700`,
		`select o_orderkey, o_orderdate, sum(l_extendedprice), min(l_quantity)
from orders, lineitem
where o_orderkey = l_orderkey
group by o_orderkey, o_orderdate`,
	}
	ctx := context.Background()
	cl, err := exchange.New(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range texts {
		pl, err := logical.Prepare(db, text)
		if err != nil {
			t.Fatalf("prepare: %v\n%s", err, text)
		}
		if !pl.Root.(*logical.Join).Deferred {
			t.Fatalf("the orders join is not deferred:\n%s", pl.Format())
		}
		want, err := sqlcheck.Oracle(db, text)
		if err != nil {
			t.Fatalf("oracle: %v\n%s", err, text)
		}
		if len(want) == 0 {
			t.Fatalf("oracle result is empty; the text tests nothing:\n%s", text)
		}
		wantC := sqlcheck.Canon(want)
		check := func(mode string, got [][]int64) {
			t.Helper()
			if !sqlcheck.SameRows(sqlcheck.Canon(got), wantC) {
				t.Errorf("%s: %d rows differ from the oracle's %d\n%s", mode, len(got), len(want), text)
			}
		}

		const workers = 4
		res, err := pl.Execute(ctx, workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		check("tectorwise", res.Rows)
		if res, err = compiled.Execute(ctx, pl, workers); err != nil {
			t.Fatal(err)
		}
		check("typer", res.Rows)
		if res, err = hybrid.Execute(ctx, pl, workers); err != nil {
			t.Fatal(err)
		}
		check("hybrid", res.Rows)

		var sink collectSink
		if err := pl.ExecuteStream(ctx, workers, 0, 16, &sink); err != nil {
			t.Fatal(err)
		}
		check("tectorwise streamed", sink.rows)
		sink = collectSink{}
		if err := compiled.ExecuteStream(ctx, pl, workers, 16, &sink); err != nil {
			t.Fatal(err)
		}
		check("typer streamed", sink.rows)
		sink = collectSink{}
		if err := hybrid.ExecuteStream(ctx, pl, workers, 16, &sink); err != nil {
			t.Fatal(err)
		}
		check("hybrid streamed", sink.rows)

		for _, engine := range []string{exchange.EngineTyper, exchange.EngineTectorwise} {
			res, err := cl.Run(ctx, exchange.Request{SQL: text, Engine: engine, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			check("2 shards "+engine, res.Rows)
		}
	}
	if _, _, fallback := cl.Stats(); fallback != 0 {
		t.Errorf("%d texts fell back to single-process execution; the shards were not exercised", fallback)
	}
}
