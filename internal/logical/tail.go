package logical

import (
	"paradigms/internal/catalog"
	"paradigms/internal/hashtable"
	"paradigms/internal/sql"
)

// The shared phase two of the keyed aggregation. Every driver (the
// vectorized and compiled backends' own executors and the hybrid
// executor) runs phase one its own way into a hashtable.Spill of rows
// [hash, key, phase-one aggregates...]; from there on one code path
// merges each spill partition, decodes the merged groups into the slot
// layout [keys..., aggs...], applies HAVING as early as its references
// allow, resolves deferred joins once per group, and hands the rows to
// the materializing, streaming or partial (exchange) consumer.

// aggLayout splits a keyed aggregation across its two phases: phase one
// computes the pre slots from the final pipeline; each deferred join
// fills its first-value slots once per merged group.
type aggLayout struct {
	pre    []int // aggregate slots phase one computes, ascending
	defers []deferSpec
}

// deferSpec locates one deferred join's hash table and what it fills.
type deferSpec struct {
	pipe  int // pipeline index of the join's build, i.e. of its table
	key   int // index of the probe key among Agg.Keys
	pays  int // payload width of the build table
	fills []slotWord
}

// slotWord copies payload word `word` of a matched build row into
// aggregate slot `slot`.
type slotWord struct{ slot, word int }

// layout derives the two-phase split of a keyed plan from its deferred
// joins. Pipeline indexes follow the lowering's order (every build
// pipeline of a join's subtree before the join's prober), and payload
// words follow BuildPays over FinalNeeds, exactly as both lowerings lay
// the build tables out.
func (pl *Plan) layout() aggLayout {
	agg := pl.Agg
	var lay aggLayout
	filled := make([]bool, len(agg.Aggs))
	pipe := 0
	var req []*catalog.Column
	for _, j := range finalChain(pl.Root) {
		pipe += pipeCount(j.Build)
		if !j.Deferred {
			continue
		}
		if req == nil {
			req = FinalNeeds(pl)
		}
		pays := BuildPays(j, req)
		tabs := tablesUnder(j.Build)
		d := deferSpec{pipe: pipe - 1, key: indexOfKey(agg.Keys, j.ProbeKey), pays: len(pays)}
		for s, a := range agg.Aggs {
			ref, ok := a.Arg.(*sql.ColRef)
			if a.Op != OpFirst || !ok || !tabs[ref.Col.Table] {
				continue
			}
			word := 0
			if ref.Col != j.BuildKey {
				word = 1 + indexOfCol(pays, ref.Col)
			}
			d.fills = append(d.fills, slotWord{slot: s, word: word})
			filled[s] = true
		}
		lay.defers = append(lay.defers, d)
	}
	for s := range agg.Aggs {
		if !filled[s] {
			lay.pre = append(lay.pre, s)
		}
	}
	return lay
}

// pipeCount is the number of pipelines the lowering emits for n: one
// for n's own spine plus those of every build it probes.
func pipeCount(n Node) int {
	c := 1
	for _, j := range finalChain(n) {
		c += pipeCount(j.Build)
	}
	return c
}

// PreAggSlots lists the aggregate slots phase one of a keyed plan
// computes, ascending: every slot except the first-value slots a
// deferred join fills in phase two. Phase-one sinks aggregate exactly
// these, so spill rows are [hash, key, one word per listed slot].
func (pl *Plan) PreAggSlots() []int { return pl.layout().pre }

// GroupTail is phase two of a keyed aggregation for one execution. A
// driver creates it before its workers start, has every worker call
// Merge for each spill partition it claims once phase one is complete,
// and calls Finish after all workers are done.
type GroupTail struct {
	pl    *Plan
	width int
	pre   []int
	ops   []hashtable.AggOp
	looks []tailLookup

	// HAVING leaves resolved to slots once; early evaluates it before
	// the deferred lookups (it reads no first-value slot), late after.
	leaves      map[sql.Expr]Slot
	early, late bool

	bufs []*StreamBuf // streaming mode: per-worker flush buffers
	part *Partial     // partial mode: the shard-local output
	rows [][][]int64  // per-worker merged rows (materializing, partial)
	errs []error      // per-worker first HAVING error
}

// tailLookup resolves one deferred join for a merged group.
type tailLookup struct {
	ht    *hashtable.Table
	hash  func(uint64) uint64
	key   int
	pair  bool // the group key word packs two 32-bit keys
	fills []slotWord
}

// NewGroupTail prepares phase two of a keyed plan for the given worker
// count. tables holds each pipeline's hash table, indexed like the
// lowered pipelines (nil for pipelines without one); hash is the hash
// function those tables were built with. With a non-nil stream the
// rows go to per-worker chunk buffers; with a non-nil part they fill
// part.Groups unfinalized (HAVING is never evaluated on a partial);
// otherwise Finish returns the finalized Result.
func (pl *Plan) NewGroupTail(workers int, tables []*hashtable.Table, hash func(uint64) uint64, stream *Streamer, chunk int, part *Partial) *GroupTail {
	agg := pl.Agg
	lay := pl.layout()
	t := &GroupTail{
		pl:    pl,
		width: len(agg.Keys) + len(agg.Aggs),
		pre:   lay.pre,
		part:  part,
		rows:  make([][][]int64, workers),
		errs:  make([]error, workers),
	}
	t.ops = make([]hashtable.AggOp, len(t.pre))
	for i, s := range t.pre {
		t.ops[i] = agg.Aggs[s].Op.HTOp()
	}
	nk := len(agg.Keys)
	for _, d := range lay.defers {
		ht := tables[d.pipe]
		if ht == nil || ht.RowWords() != 3+d.pays {
			panic("logical: deferred join's hash table does not match its layout")
		}
		fills := make([]slotWord, len(d.fills))
		for i, f := range d.fills {
			fills[i] = slotWord{slot: nk + f.slot, word: f.word}
		}
		t.looks = append(t.looks, tailLookup{ht: ht, hash: hash, key: d.key, pair: nk == 2, fills: fills})
	}
	if stream != nil {
		t.bufs = make([]*StreamBuf, workers)
		for i := range t.bufs {
			t.bufs[i] = stream.NewBuf(chunk)
		}
	}
	if pl.Having != nil && part == nil {
		t.leaves = map[sql.Expr]Slot{}
		readsFirst := false
		walkLeaves(pl.Having, func(e sql.Expr) {
			if s, ok := pl.findSlot(e); ok {
				t.leaves[e] = s
				readsFirst = readsFirst || !s.Key && agg.Aggs[s.Idx].Op == OpFirst
			}
		})
		t.early, t.late = !readsFirst, readsFirst
	}
	return t
}

// Ops returns the merge operators of the phase-one aggregates: the
// spill a driver feeds this tail has rows of 2+len(Ops()) words.
func (t *GroupTail) Ops() []hashtable.AggOp { return t.ops }

// Merge runs phase two for spill partition p on worker wid: merge the
// partition's partial rows, decode each group into a per-partition
// arena, and keep it if it passes HAVING and matches every deferred
// join.
func (t *GroupTail) Merge(wid int, spill *hashtable.Spill, p int) {
	agg := t.pl.Agg
	nk, width := len(agg.Keys), t.width
	var arena []int64
	if t.bufs == nil && !t.early {
		arena = make([]int64, 0, spill.PartitionCount(p)*width)
	}
	cur := make([]int64, width)
	lookup := func(e sql.Expr) (int64, bool) {
		s, ok := t.leaves[e]
		if !ok {
			return 0, false
		}
		return t.pl.slotValue(cur, s), true
	}
	having := func() bool {
		v, _, err := evalScalar(t.pl.Having, lookup)
		if err != nil && t.errs[wid] == nil {
			t.errs[wid] = err
		}
		return err == nil && v != 0
	}
	hashtable.MergeSpill(spill, p, t.ops, func(row []uint64) {
		DecodeGroupKey(agg.Keys, row[1], cur)
		for i, s := range t.pre {
			cur[nk+s] = int64(row[2+i])
		}
		if t.early && !having() {
			return
		}
		for i := range t.looks {
			if !t.looks[i].resolve(row[1], cur) {
				return
			}
		}
		if t.late && !having() {
			return
		}
		if t.bufs != nil {
			t.bufs[wid].Add(t.pl.itemRow(cur))
			return
		}
		arena = append(arena, cur...)
		t.rows[wid] = append(t.rows[wid], arena[len(arena)-width:len(arena):len(arena)])
	})
}

// resolve probes the deferred join's table with the group's probe key
// and fills the first-value slots from the matching build row; false
// means no build row matches, so the inner join drops the group.
func (lk *tailLookup) resolve(keyWord uint64, out []int64) bool {
	k := keyWord
	if lk.pair {
		// Packed 32-bit pair: the same zero-extended word the per-row
		// probe of that key column would have hashed.
		k = uint64(uint32(keyWord >> (32 * lk.key)))
	}
	ht := lk.ht
	for ref := ht.Lookup(lk.hash(k)); ref != 0; ref = ht.Next(ref) {
		if row := ht.Row(ref); row[0] == k {
			for _, f := range lk.fills {
				out[f.slot] = int64(row[f.word])
			}
			return true
		}
	}
	return false
}

// Finish completes phase two after every worker's last Merge: it
// flushes the stream buffers, or hands the groups to the partial, or
// sorts, limits and maps them into the final Result (HAVING is already
// applied).
func (t *GroupTail) Finish() (*Result, error) {
	for _, err := range t.errs {
		if err != nil {
			return nil, err
		}
	}
	if t.bufs != nil {
		for _, b := range t.bufs {
			b.Flush()
		}
		return nil, nil
	}
	var rows [][]int64
	for _, wr := range t.rows {
		rows = append(rows, wr...)
	}
	if t.part != nil {
		t.part.Groups = append(t.part.Groups, rows...)
		return nil, nil
	}
	return t.pl.finishRows(rows), nil
}

// walkLeaves visits the value leaves of an expression (column
// references and aggregate calls; aggregates are not descended into).
func walkLeaves(e sql.Expr, fn func(sql.Expr)) {
	switch x := e.(type) {
	case *sql.ColRef, *sql.Agg:
		fn(e)
	case *sql.Binary:
		walkLeaves(x.L, fn)
		walkLeaves(x.R, fn)
	case *sql.Not:
		walkLeaves(x.X, fn)
	case *sql.Between:
		walkLeaves(x.X, fn)
		walkLeaves(x.Lo, fn)
		walkLeaves(x.Hi, fn)
	case *sql.InList:
		walkLeaves(x.X, fn)
		for _, l := range x.List {
			walkLeaves(l, fn)
		}
	}
}
