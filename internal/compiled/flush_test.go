package compiled

import (
	"context"
	"testing"

	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/logical"
	"paradigms/internal/storage"
)

// flushDB holds one relation grp(g, v): more than preAggCapacity
// distinct keys g in clustered runs of three rows, optionally with a
// heavy-hitter key every 1024 rows (inside the runs).
func flushDB(heavy bool) *storage.Database {
	const groups, run, heavyEvery, heavyKey = 3*preAggCapacity + 123, 3, 1024, 1
	var g []int32
	var v []int64
	for k := 0; k < groups; k++ {
		for r := 0; r < run; r++ {
			if heavy && len(g)%heavyEvery == 0 {
				g = append(g, heavyKey)
				v = append(v, 7)
			}
			g = append(g, int32(2*k+2))
			v = append(v, int64(k%97-40+r))
		}
	}
	rel := storage.NewRelation("grp")
	rel.AddInt32("g", g)
	rel.AddInt64("v", v)
	db := storage.NewDatabase("flush", 0)
	db.Add(rel)
	return db
}

// TestRunGroupedFlushOnFull: the fused phase one flushes a full
// pre-aggregation table to the spill partitions and clears it, instead
// of spilling every tuple of a later group on its own. Every flush
// empties a full table, so flushes = ⌈spilled/capacity⌉ − 1; clustered
// runs then spill at most groups + flushes rows, and a heavy hitter
// that re-enters every flushed table (possibly splitting a run) at most
// one more per flush. Results on one and several workers must equal a
// map-based reference.
func TestRunGroupedFlushOnFull(t *testing.T) {
	ctx := context.Background()
	for _, heavy := range []bool{false, true} {
		db := flushDB(heavy)
		pl, err := logical.Prepare(db, "select g, sum(v), max(v) from grp group by g")
		if err != nil {
			t.Fatal(err)
		}
		rel := db.Rel("grp")
		gs, vs := rel.Int32("g"), rel.Int64("v")
		ref := map[int64][2]int64{}
		for i := range gs {
			a, ok := ref[int64(gs[i])]
			if !ok {
				a[1] = vs[i]
			}
			a[0] += vs[i]
			a[1] = max(a[1], vs[i])
			ref[int64(gs[i])] = a
		}

		pr, err := lower(pl)
		if err != nil {
			t.Fatal(err)
		}
		final := pr.final
		final.disp = exec.NewDispatcherCtx(ctx, rel.Rows(), 0)
		specs, err := final.compileAggs(pl.Agg, pl.PreAggSlots())
		if err != nil {
			t.Fatal(err)
		}
		keyGet, err := final.groupKeyGet(pl.Agg)
		if err != nil {
			t.Fatal(err)
		}
		spill := hashtable.NewSpill(1, aggPartitions, 2+len(specs))
		final.runGrouped(0, specs, keyGet, spill, nil)
		spilled := spill.TotalRows()
		flushes := (spilled - 1) / preAggCapacity
		if flushes == 0 {
			t.Fatalf("heavy=%v: %d groups never filled the table", heavy, len(ref))
		}
		bound := len(ref) + flushes
		if heavy {
			bound += flushes
		}
		if spilled > bound {
			t.Errorf("heavy=%v: spilled %d rows for %d groups and %d flushes, want ≤ %d",
				heavy, spilled, len(ref), flushes, bound)
		}

		for _, workers := range []int{1, 3} {
			res, err := Execute(ctx, pl, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != len(ref) {
				t.Fatalf("heavy=%v w=%d: %d groups, want %d", heavy, workers, len(res.Rows), len(ref))
			}
			for _, r := range res.Rows {
				if want := ref[r[0]]; r[1] != want[0] || r[2] != want[1] {
					t.Fatalf("heavy=%v w=%d: group %d = (%d, %d), want (%d, %d)",
						heavy, workers, r[0], r[1], r[2], want[0], want[1])
				}
			}
		}
	}
}
