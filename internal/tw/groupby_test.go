package tw

import (
	"sync"
	"testing"

	"paradigms/internal/hashtable"
)

// groupInput is a synthetic phase-one input: more than preAggCapacity
// distinct keys in clustered runs (every key's rows are adjacent, like
// lineitem grouped by orderkey), optionally with one heavy-hitter key
// at the head of every vector.
type groupInput struct {
	keys []uint64
	vals []int64
}

const heavyKey = 1 << 40

func makeGroupInput(groups, run, vec int, heavy bool) groupInput {
	var in groupInput
	for k := 0; k < groups; k++ {
		for r := 0; r < run; r++ {
			if heavy && len(in.keys)%vec == 0 {
				in.keys = append(in.keys, heavyKey)
				in.vals = append(in.vals, 7)
			}
			in.keys = append(in.keys, uint64(k)*2654435761%(1<<31))
			in.vals = append(in.vals, int64(k%97-40+r))
		}
	}
	return in
}

// feed runs rows [lo, hi) of the input through one worker's GroupBy in
// vectors of vec rows (sum and max of the value), then flushes.
func feed(in groupInput, lo, hi, vec int, spill *hashtable.Spill, wid int) *GroupBy {
	ops := []hashtable.AggOp{hashtable.OpSum, hashtable.OpMax}
	gb := NewGroupBy(spill, wid, ops, vec)
	hashes := make([]uint64, vec)
	for base := lo; base < hi; base += vec {
		end := min(base+vec, hi)
		keys := in.keys[base:end]
		MapHashU64(keys, hashes)
		v := in.vals[base:end]
		gb.Consume(end-base, keys, hashes, [][]int64{v, v})
	}
	gb.Flush()
	return gb
}

// mergeAll runs phase two over every partition into a map.
func mergeAll(spill *hashtable.Spill) map[uint64][2]int64 {
	got := map[uint64][2]int64{}
	ops := []hashtable.AggOp{hashtable.OpSum, hashtable.OpMax}
	for p := 0; p < spill.Parts(); p++ {
		hashtable.MergeSpill(spill, p, ops, func(row []uint64) {
			got[row[1]] = [2]int64{int64(row[2]), int64(row[3])}
		})
	}
	return got
}

func reference(in groupInput) map[uint64][2]int64 {
	ref := map[uint64][2]int64{}
	for i, k := range in.keys {
		a, ok := ref[k]
		if !ok {
			a[1] = in.vals[i]
		}
		a[0] += in.vals[i]
		a[1] = max(a[1], in.vals[i])
		ref[k] = a
	}
	return ref
}

// TestGroupByFlushOnFull: with more distinct keys than the
// pre-aggregation table holds, a full table is flushed to the spill
// partitions and cleared instead of spilling every later tuple on its
// own. With clustered runs each flush splits at most one run, so the
// spill holds at most groups + flushes rows; a heavy hitter present in
// every vector adds at most one row per flush. The merged sums and
// maxima must equal a map-based reference either way, on one worker and
// on several sharing the spill.
func TestGroupByFlushOnFull(t *testing.T) {
	const vec = 1024
	groups := 3*preAggCapacity + 123
	for _, heavy := range []bool{false, true} {
		in := makeGroupInput(groups, 3, vec, heavy)
		ref := reference(in)

		spill := hashtable.NewSpill(1, aggPartitions, 4)
		gb := feed(in, 0, len(in.keys), vec, spill, 0)
		spilled, flushes := spill.TotalRows(), gb.flushes
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
		if got := mergeAll(spill); !sameGroups(got, ref) {
			t.Errorf("heavy=%v: one worker: merged groups differ from the reference", heavy)
		}

		// Several workers on one spill (run under -race in CI).
		const workers = 3
		spill = hashtable.NewSpill(workers, aggPartitions, 4)
		var wg sync.WaitGroup
		chunk := (len(in.keys) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				feed(in, w*chunk, min((w+1)*chunk, len(in.keys)), vec, spill, w)
			}(w)
		}
		wg.Wait()
		if got := mergeAll(spill); !sameGroups(got, ref) {
			t.Errorf("heavy=%v: %d workers: merged groups differ from the reference", heavy, workers)
		}
	}
}

func sameGroups(got, want map[uint64][2]int64) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}
