package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"paradigms/internal/logical"
)

// workload is one traffic mix. The comments on the entries of workloads
// say why each exists; README.md has the same table.
type workload struct {
	name   string
	tpchSF float64
	ssbSF  float64 // 0 = no SSB database
	shards int     // > 1 = ServiceOptions.Shards, driven in process
	// rate > 0 makes the loop open at that many requests per second;
	// otherwise closed with `clients` clients.
	rate float64
}

// clients is the closed-loop client count and the open loop's sender
// count (one HTTP connection each).
const clients = 2

// preparedRate is the prepared workload's offered load in requests per
// second: about half of the ~2,500/s two closed-loop clients complete on
// this workload on a 2-vCPU Xeon VM, so queueing shows without the
// backlog growing.
const preparedRate = 1200

var workloads = map[string]workload{
	// Engine execution is almost all of each request (results <= 280
	// rows); 78 MB of columns is far past L2. This is where fused vs
	// vectorized shows.
	"olap": {name: "olap", tpchSF: 0.1, ssbSF: 0.1},
	// 9k-24k rows per request: wire encode and client decode dominate,
	// the engines do little.
	"export": {name: "export", tpchSF: 0.1},
	// Cache-resident data, plan-cache hits, binding and auto-routing at
	// 0.6-2 ms per request; parse and plan are bypassed.
	"prepared": {name: "prepared", tpchSF: 0.01, ssbSF: 0.01, rate: preparedRate},
	// The olap texts through the exchange layer. In process because HTTP
	// submissions always stream and streaming never reaches the cluster.
	"sharded": {name: "sharded", tpchSF: 0.1, ssbSF: 0.1, shards: 2},
}

// item is one distinct request of a workload's pool.
type item struct {
	label    string // unique within the pool, e.g. "Q3/typer"
	query    string // metric suffix: canonical query, template or "export"
	engine   string
	sql      string
	args     []string // prepared: the bindings of the template's placeholders
	prepared bool
	weight   int
	want     *expect
}

// olapWeights sets how often each canonical query is drawn, per engine,
// out of one deck. Q18 costs ~20x the light queries; its weight keeps it
// under half of the run's time (~40%) and puts it well above 1% of
// requests (3.6%), so p99 lies inside Q18's own spread rather than on
// the edge between it and the next query.
var olapWeights = map[string]int{
	"Q6": 6, "Q3": 6, "Q5": 4, "Q18": 1, "Q1.1": 6, "Q2.1": 5,
}

// olapQueries lists the canonical texts in a fixed order.
var olapQueries = []struct{ dataset, name string }{
	{"tpch", "Q6"}, {"tpch", "Q3"}, {"tpch", "Q5"}, {"tpch", "Q18"},
	{"ssb", "Q1.1"}, {"ssb", "Q2.1"},
}

// buildItems derives a workload's request pool from the seed alone.
func buildItems(w workload, seed int64) ([]*item, error) {
	r := rand.New(rand.NewSource(seed))
	var out []*item
	switch w.name {
	case "olap", "sharded":
		engines := []string{"typer", "tectorwise", "hybrid"}
		if w.name == "sharded" {
			engines = engines[:2] // the cluster runs typer and tectorwise only
		}
		for _, q := range olapQueries {
			text, ok := logical.SQLText(q.dataset, q.name)
			if !ok {
				return nil, fmt.Errorf("no canonical text for %s %s", q.dataset, q.name)
			}
			for _, e := range engines {
				out = append(out, &item{label: q.name + "/" + e, query: q.name, engine: e, sql: text, weight: olapWeights[q.name]})
			}
		}
	case "export":
		for i, text := range exportTexts(r) {
			for _, e := range []string{"typer", "tectorwise"} {
				out = append(out, &item{label: fmt.Sprintf("export%d/%s", i, e), query: "export", engine: e, sql: text, weight: 1})
			}
		}
	case "prepared":
		for _, t := range templates {
			for i := 0; i < bindingsPerTemplate; i++ {
				out = append(out, &item{
					label: fmt.Sprintf("%s#%d", t.name, i), query: t.name, engine: "auto",
					sql: t.text, args: t.args(r), prepared: true, weight: 1,
				})
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	return out, nil
}

// exportPool is how many distinct projections one seed draws.
const exportPool = 8

// exportCols are the projection lists an export draws from; each is used
// by exportPool/len(exportCols) projections of a pool.
var exportCols = []string{
	"l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice",
	"l_orderkey, l_extendedprice, l_discount, l_tax, l_shipdate",
	"l_partkey, l_suppkey, l_quantity, l_discount, l_shipdate",
	"l_orderkey, l_quantity, l_extendedprice, l_discount, l_tax, l_shipdate",
}

// exportTexts draws one pool of lineitem projections over ship-date
// windows of 40 to 100 days: 9k-24k rows each at SF 0.1. The lengths are
// spread evenly over that range and paired so that every column list gets
// two windows of the same total length; the seed picks the window starts,
// which column list gets which pair, and the order. So every seed asks for
// about the same number of rows and bytes, and the metrics do not move
// with the seed. Windows stay inside 1992-06-01..1998-08-01, where ship
// dates are uniformly dense.
func exportTexts(r *rand.Rand) []string {
	first := time.Date(1992, 6, 1, 0, 0, 0, 0, time.UTC)
	span := int(time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC).Sub(first).Hours() / 24)
	cols := r.Perm(len(exportCols))
	out := make([]string, exportPool)
	for i := range out {
		// Length index i and exportPool-1-i go to the same column list.
		days := 40 + i*60/(exportPool-1)
		c := cols[min(i, exportPool-1-i)%len(exportCols)]
		lo := first.AddDate(0, 0, r.Intn(span-days))
		out[i] = fmt.Sprintf("select %s from lineitem where l_shipdate >= date '%s' and l_shipdate < date '%s'",
			exportCols[c], lo.Format(time.DateOnly), lo.AddDate(0, 0, days).Format(time.DateOnly))
	}
	return out
}

// bindingsPerTemplate is how many argument sets one seed draws per
// prepared template; each is checked against the oracle.
const bindingsPerTemplate = 8

// templates are cmd/serve's parameterized templates of its -prepared
// workload, with the same argument samplers: a Q6-class scan, a
// Q3-class join and an SSB Q1.1-class scan.
var templates = []struct {
	name string
	text string
	args func(r *rand.Rand) []string
}{
	{
		name: "Q6t",
		text: `select sum(l_extendedprice * l_discount) as revenue from lineitem
				where l_shipdate >= ? and l_shipdate < ? and l_discount between ? and ? and l_quantity < ?`,
		args: func(r *rand.Rand) []string {
			y := 1993 + r.Intn(4)
			lo := 2 + r.Intn(6)
			return []string{date(y, 1, 1), date(y+1, 1, 1),
				fmt.Sprintf("0.0%d", lo), fmt.Sprintf("0.0%d", lo+2),
				fmt.Sprintf("%d", 20+r.Intn(15))}
		},
	},
	{
		name: "Q3t",
		text: `select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue,
				o_orderdate, o_shippriority
				from customer, orders, lineitem
				where c_mktsegment = 'BUILDING' and c_custkey = o_custkey and l_orderkey = o_orderkey
				and o_orderdate < ? and l_shipdate > ?
				group by l_orderkey, o_orderdate, o_shippriority
				order by revenue desc, o_orderdate, l_orderkey limit 10`,
		args: func(r *rand.Rand) []string {
			d := date(1995, 1+r.Intn(6), 1+r.Intn(28))
			return []string{d, d}
		},
	},
	{
		name: "Q1.1t",
		text: `select sum(lo_extendedprice * lo_discount) as revenue from lineorder, date
				where lo_orderdate = d_datekey and d_year = ? and lo_discount between ? and ? and lo_quantity < ?`,
		args: func(r *rand.Rand) []string {
			lo := 1 + r.Intn(3)
			return []string{fmt.Sprintf("%d", 1992+r.Intn(6)),
				fmt.Sprintf("%d", lo), fmt.Sprintf("%d", lo+2),
				fmt.Sprintf("%d", 20+r.Intn(15))}
		},
	},
}

func date(y, m, d int) string { return fmt.Sprintf("%04d-%02d-%02d", y, m, d) }

// stream is the seeded request sequence: the pool's weighted deck,
// reshuffled once per pass. Every pass holds each item exactly weight
// times, so the mix a run sees does not drift with the seed; the seed
// decides the order and the export and prepared inputs.
type stream struct {
	seed int64
	deck []int

	mu     sync.Mutex
	passes [][]int
}

func newStream(seed int64, items []*item) *stream {
	s := &stream{seed: seed}
	for i, it := range items {
		for k := 0; k < it.weight; k++ {
			s.deck = append(s.deck, i)
		}
	}
	sort.Ints(s.deck)
	return s
}

// at returns the pool index of the i-th request.
func (s *stream) at(i int) int {
	pass, pos := i/len(s.deck), i%len(s.deck)
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.passes) <= pass {
		p := append([]int(nil), s.deck...)
		r := rand.New(rand.NewSource(s.seed*1_000_003 + int64(len(s.passes)) + 1))
		r.Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
		s.passes = append(s.passes, p)
	}
	return s.passes[pass][pos]
}
