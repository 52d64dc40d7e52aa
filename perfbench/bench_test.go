package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{999, 99, 990, false}, // 9 samples above the 990th
		{1000, 99, 990, true}, // 10 samples above the 990th
		{19, 50, 10, false},
		{20, 50, 10, true},
		{0, 50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(ramp(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g, %v", c.p, c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "scatter", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "shard", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "shard", Start: 30, End: 70}, // overlaps 2
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "inner", Start: 20, End: 40}, // grandchild
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - 60 - 10, // [10,70] once, plus [90,100]
		2: 40 - 20,
		3: 40,
		4: 30,
		5: 20,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestSameSeedSameRequestStream(t *testing.T) {
	render := func(w workload, seed int64) []string {
		items, err := buildItems(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		s := newStream(seed, items)
		out := make([]string, 2000)
		for i := range out {
			it := items[s.at(i)]
			out[i] = it.label + "|" + it.engine + "|" + it.sql + "|" + joinArgs(it.args)
		}
		return out
	}
	for _, name := range workloadNames() {
		w := workloads[name]
		a, b := render(w, 7), render(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if reflect.DeepEqual(a, render(w, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

func joinArgs(args []string) string {
	raw, _ := json.Marshal(args)
	return string(raw)
}

func TestEveryPassHoldsTheWeightedMix(t *testing.T) {
	items, err := buildItems(workloads["olap"], 3)
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(3, items)
	n := len(s.deck)
	for pass := 0; pass < 3; pass++ {
		count := make([]int, len(items))
		for i := pass * n; i < (pass+1)*n; i++ {
			count[s.at(i)]++
		}
		for k, it := range items {
			if count[k] != it.weight {
				t.Errorf("pass %d: %s drawn %d times, weight %d", pass, it.label, count[k], it.weight)
			}
		}
	}
}

func TestExportChecksumIgnoresRowOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	rows := make([][]int64, 500)
	for i := range rows {
		rows[i] = []int64{r.Int63n(100), r.Int63n(100), r.Int63n(5)}
	}
	want := expectChecksum(rows)
	shuffled := append([][]int64(nil), rows...)
	r.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	if !want.verify(shuffled) {
		t.Fatal("reordered rows fail the checksum")
	}

	changed := clone(rows)
	changed[17][1]++
	if want.verify(changed) {
		t.Error("a changed value passes the checksum")
	}
	swapped := clone(rows)
	swapped[3][0], swapped[3][1] = swapped[3][1]+1000, swapped[3][0]
	if want.verify(swapped) {
		t.Error("values moved between columns pass the checksum")
	}
	if want.verify(rows[1:]) {
		t.Error("a missing row passes the checksum")
	}
}

func TestOrderedAndMultisetComparison(t *testing.T) {
	rows := [][]int64{{1, 10}, {2, 20}, {3, 30}}
	reversed := [][]int64{{3, 30}, {2, 20}, {1, 10}}
	ordered := expectRows("select a, b from t order by a", rows)
	if !ordered.verify(rows) || ordered.verify(reversed) {
		t.Error("ordered comparison must accept the order and reject a permutation")
	}
	multi := expectRows("select a, b from t", rows)
	if !multi.verify(reversed) || multi.verify(rows[:2]) {
		t.Error("multiset comparison must accept a permutation and reject a missing row")
	}
}

func clone(rows [][]int64) [][]int64 {
	out := make([][]int64, len(rows))
	for i, r := range rows {
		out[i] = append([]int64(nil), r...)
	}
	return out
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}

	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	e2e, err := endToEnd(&tally{lat: lat, attempted: 1000, elapsed: time.Second}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, program prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): program prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, program prints %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		if p := perLayerMetrics[i]; p.name != m.Name || p.unit != m.Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, p.name, p.unit)
		}
	}
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
