package logical

import (
	"strings"
	"testing"

	"paradigms/internal/sql"
)

// These tests assert on the *shape* of the optimized logical plan — not
// on query output — so each rewrite is pinned independently.

func mustPlan(t *testing.T, dataset, text string) *Plan {
	t.Helper()
	tp, sb := testDBs()
	db := tp[0.01]
	if dataset == "ssb" {
		db = sb[0.01]
	}
	pl, err := Prepare(db, text)
	if err != nil {
		t.Fatalf("plan %q: %v", text, err)
	}
	return pl
}

// TestPredicatePushdown: every single-table WHERE conjunct lands in its
// table's scan, none survive anywhere else.
func TestPredicatePushdown(t *testing.T) {
	text, _ := SQLText("tpch", "Q3")
	pl := mustPlan(t, "tpch", text)

	var scans []*Scan
	var walk func(Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Scan:
			scans = append(scans, x)
		case *Join:
			walk(x.Build)
			walk(x.Probe)
		}
	}
	walk(pl.Root)

	byTable := map[string]*Scan{}
	for _, s := range scans {
		byTable[s.Table.Name] = s
	}
	cust, ord, li := byTable["customer"], byTable["orders"], byTable["lineitem"]
	if cust == nil || ord == nil || li == nil {
		t.Fatalf("expected scans of customer/orders/lineitem, got %v", byTable)
	}
	if len(cust.Filters) != 1 || !strings.Contains(sql.String(cust.Filters[0]), "c_mktsegment") {
		t.Errorf("customer scan filters = %v, want the mktsegment predicate", filterStrs(cust))
	}
	if len(ord.Filters) != 1 || !strings.Contains(sql.String(ord.Filters[0]), "o_orderdate") {
		t.Errorf("orders scan filters = %v, want the orderdate predicate", filterStrs(ord))
	}
	if len(li.Filters) != 1 || !strings.Contains(sql.String(li.Filters[0]), "l_shipdate") {
		t.Errorf("lineitem scan filters = %v, want the shipdate predicate", filterStrs(li))
	}

	// BETWEEN desugars into a two-conjunct cascade on the scan.
	q6text, _ := SQLText("tpch", "Q6")
	q6 := mustPlan(t, "tpch", q6text)
	sc, ok := q6.Root.(*Scan)
	if !ok {
		t.Fatalf("Q6 plan root is %T, want a bare scan", q6.Root)
	}
	if len(sc.Filters) != 5 {
		t.Errorf("Q6 scan has %d conjuncts, want 5 (date×2, discount between→2, quantity)", len(sc.Filters))
	}
}

// TestJoinOrder: hash tables build on the smaller, key-unique dimension
// side; the fact table is the probe spine; selective chains probe
// first; the cross-chain nation equality becomes a residual.
func TestJoinOrder(t *testing.T) {
	text, _ := SQLText("tpch", "Q5")
	pl := mustPlan(t, "tpch", text)

	// Spine of the final pipeline is lineitem (the largest table).
	if got := pl.Root.Spine().Table.Name; got != "lineitem" {
		t.Fatalf("final pipeline spine = %s, want lineitem", got)
	}

	// Outermost join (last probe) is the orders chain; beneath it the
	// supplier chain probes first (smaller filtered build side).
	top, ok := pl.Root.(*Join)
	if !ok {
		t.Fatal("plan root is not a join")
	}
	if top.BuildKey.Name != "o_orderkey" || top.ProbeKey.Name != "l_orderkey" {
		t.Errorf("outer join keys = %s/%s, want l_orderkey = o_orderkey", top.ProbeKey.Name, top.BuildKey.Name)
	}
	inner, ok := top.Probe.(*Join)
	if !ok {
		t.Fatal("expected a second probe beneath the orders join")
	}
	if inner.BuildKey.Name != "s_suppkey" {
		t.Errorf("inner join build key = %s, want s_suppkey", inner.BuildKey.Name)
	}

	// The c_nationkey = s_nationkey equality cannot be a hash join
	// (neither side is a unique key): it must be a residual on the join
	// where both chains have been probed.
	if len(top.Residuals) != 1 {
		t.Fatalf("outer join residuals = %v, want the nation equality", top.Residuals)
	}
	r := top.Residuals[0]
	names := []string{r[0].Name, r[1].Name}
	if !(contains(names, "c_nationkey") && contains(names, "s_nationkey")) {
		t.Errorf("residual joins %v, want c_nationkey = s_nationkey", names)
	}

	// The orders chain builds customer's hash table on c_custkey
	// (customer is the smaller side of that chain's join).
	ordChain, ok := top.Build.(*Join)
	if !ok || ordChain.Spine().Table.Name != "orders" {
		t.Fatalf("orders chain spine = %v, want orders streaming a customer build", top.Build)
	}
	if ordChain.BuildKey.Name != "c_custkey" {
		t.Errorf("orders chain builds on %s, want c_custkey", ordChain.BuildKey.Name)
	}

	// The supplier chain is the snowflake supplier ← nation ← region.
	suppChain, ok := inner.Build.(*Join)
	if !ok || suppChain.Spine().Table.Name != "supplier" {
		t.Fatalf("supplier chain = %v, want supplier probing nation", inner.Build)
	}
	if suppChain.BuildKey.Name != "n_nationkey" {
		t.Errorf("supplier chain builds on %s, want n_nationkey", suppChain.BuildKey.Name)
	}
	nationChain, ok := suppChain.Build.(*Join)
	if !ok || nationChain.BuildKey.Name != "r_regionkey" {
		t.Fatalf("nation chain = %v, want nation probing region on r_regionkey", suppChain.Build)
	}
}

// TestProjectionPruning: scans list only the columns later operators
// consume; filter-only columns are excluded.
func TestProjectionPruning(t *testing.T) {
	text, _ := SQLText("tpch", "Q6")
	pl := mustPlan(t, "tpch", text)
	sc := pl.Root.(*Scan)
	cols := map[string]bool{}
	for _, c := range sc.Cols {
		cols[c.Name] = true
	}
	if !cols["l_extendedprice"] || !cols["l_discount"] {
		t.Errorf("Q6 scan cols = %v, want the two revenue inputs", colNames(sc.Cols))
	}
	if cols["l_shipdate"] || cols["l_quantity"] {
		t.Errorf("Q6 scan cols = %v: filter-only columns must be pruned", colNames(sc.Cols))
	}

	q3text, _ := SQLText("tpch", "Q3")
	q3 := mustPlan(t, "tpch", q3text)
	var custScan *Scan
	var walk func(Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Scan:
			if x.Table.Name == "customer" {
				custScan = x
			}
		case *Join:
			walk(x.Build)
			walk(x.Probe)
		}
	}
	walk(q3.Root)
	if custScan == nil {
		t.Fatal("no customer scan in Q3 plan")
	}
	if len(custScan.Cols) != 1 || custScan.Cols[0].Name != "c_custkey" {
		t.Errorf("customer scan cols = %v, want only the join key c_custkey", colNames(custScan.Cols))
	}
}

// TestConstantFolding: literal arithmetic folds before pushdown, so the
// scan predicate compares against a single pre-scaled literal.
func TestConstantFolding(t *testing.T) {
	pl := mustPlan(t, "tpch", `select sum(l_extendedprice) from lineitem where l_quantity < 20 + 4`)
	sc := pl.Root.(*Scan)
	if len(sc.Filters) != 1 {
		t.Fatalf("filters = %v", sc.Filters)
	}
	got := sql.String(sc.Filters[0])
	if strings.Contains(got, "+") || !strings.Contains(got, "24") {
		t.Errorf("folded predicate = %s, want a single folded literal (no arithmetic)", got)
	}
	// The folded literal carries the column's raw scale (24.00 → 2400).
	lit, ok := sc.Filters[0].(*sql.Binary).R.(*sql.NumLit)
	if !ok || lit.Val != 2400 {
		t.Errorf("folded literal = %#v, want raw value 2400 at scale 2", sc.Filters[0].(*sql.Binary).R)
	}
}

// TestGroupKeyReduction: grouping columns functionally determined by a
// kept key demote to first-value slots (Q3: group by l_orderkey only).
func TestGroupKeyReduction(t *testing.T) {
	text, _ := SQLText("tpch", "Q3")
	pl := mustPlan(t, "tpch", text)
	if pl.Agg == nil {
		t.Fatal("Q3 plan has no aggregate")
	}
	if len(pl.Agg.Keys) != 1 || pl.Agg.Keys[0].Name != "l_orderkey" {
		t.Fatalf("Q3 kept keys = %v, want [l_orderkey]", colNames(pl.Agg.Keys))
	}
	firsts := 0
	for _, s := range pl.Agg.Aggs {
		if s.Op == OpFirst {
			firsts++
		}
	}
	if firsts != 2 {
		t.Errorf("Q3 has %d first-value slots, want 2 (o_orderdate, o_shippriority)", firsts)
	}

	// Q2.1 keeps both independent keys, packed.
	q21, _ := SQLText("ssb", "Q2.1")
	pl2 := mustPlan(t, "ssb", q21)
	if len(pl2.Agg.Keys) != 2 {
		t.Errorf("Q2.1 kept keys = %v, want both d_year and p_brand1", colNames(pl2.Agg.Keys))
	}
}

// TestEagerAggregation: canonical Q18 defers its unfiltered orders join
// past the aggregation (l_orderkey is its kept key, the orders chain
// feeds only first-value slots), so phase one aggregates the lineitem
// spine alone; Q3, Q5 and SSB Q2.1 probe filtered build sides (or key
// on gathered columns) and keep their plans.
func TestEagerAggregation(t *testing.T) {
	text, _ := SQLText("tpch", "Q18")
	pl := mustPlan(t, "tpch", text)
	top, ok := pl.Root.(*Join)
	if !ok || !top.Deferred || top.ProbeKey.Name != "l_orderkey" {
		t.Fatalf("Q18: the l_orderkey = o_orderkey join is not deferred:\n%s", pl.Format())
	}
	if inner, ok := top.Build.(*Join); !ok || inner.Deferred {
		t.Errorf("Q18: only a final-pipeline join may be deferred:\n%s", pl.Format())
	}
	pre := pl.PreAggSlots()
	if len(pre) != 1 || pl.Agg.Aggs[pre[0]].Op != OpSum {
		t.Errorf("Q18 phase-one slots = %v, want only sum(l_quantity)", pre)
	}
	if out := pl.Format(); !strings.Contains(out, "hashjoin l_orderkey = o_orderkey deferred(probed once per group after aggregation)") {
		t.Errorf("Format() does not mark the deferred join:\n%s", out)
	}

	for _, q := range []struct{ dataset, name string }{{"tpch", "Q3"}, {"tpch", "Q5"}, {"ssb", "Q2.1"}} {
		text, _ := SQLText(q.dataset, q.name)
		pl := mustPlan(t, q.dataset, text)
		for _, j := range finalChain(pl.Root) {
			if j.Deferred {
				t.Errorf("%s: join %s = %s deferred:\n%s", q.name, j.ProbeKey.Name, j.BuildKey.Name, pl.Format())
			}
		}
		if out := pl.Format(); strings.Contains(out, "deferred") {
			t.Errorf("%s: EXPLAIN shows a deferral:\n%s", q.name, out)
		}
		if got, want := len(pl.PreAggSlots()), len(pl.Agg.Aggs); got != want {
			t.Errorf("%s: phase one computes %d of %d aggregate slots", q.name, got, want)
		}
	}
}

// TestFormat pins the EXPLAIN rendering the shape tests and sqlsh rely
// on.
func TestFormat(t *testing.T) {
	text, _ := SQLText("tpch", "Q3")
	pl := mustPlan(t, "tpch", text)
	out := pl.Format()
	for _, want := range []string{
		"limit 10",
		"groupby keys=[l_orderkey] (reduced from [l_orderkey o_orderdate o_shippriority])",
		"hashjoin l_orderkey = o_orderkey",
		"scan customer σ((c_mktsegment = 'BUILDING'))",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

func filterStrs(s *Scan) []string {
	var out []string
	for _, f := range s.Filters {
		out = append(out, sql.String(f))
	}
	return out
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
