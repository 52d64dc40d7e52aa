// Command perfbench is the repository's end-to-end benchmark. It drives
// the query service the way a user sees it — paradigms.NewService with
// cmd/serve's defaults, served by proto.Server on loopback and called
// through proto/client (in process through Service.Do for the sharded
// workload) — verifies every response against a result computed before
// timing, and prints one JSON result line last.
//
//	perfbench --workload olap --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 replays the same
// seeded stream with spans and reports the per-layer metrics instead.
// See README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median of them.
const setupReps = 7

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "olap | export | prepared | sharded")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 25, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir  = flag.String("out", ".bench_build", "directory for the span dump of traced runs")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	rep, _ := json.Marshal(map[string]any{"report": res.report})
	fmt.Println(string(rep))
	line, _ := json.Marshal(res.result)
	fmt.Println(string(line))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	result result
	report map[string]any
}

func measure(w workload, seed int64, window time.Duration, traced bool, outDir string) (*outcome, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	items, err := buildItems(w, seed)
	if err != nil {
		return nil, err
	}

	var (
		in                        *instance
		setups, tpchGens, ssbGens []float64
	)
	for i := 0; i < setupReps; i++ {
		if in != nil {
			in.close()
			in = nil
		}
		// Every set-up starts from memory returned to the OS, like the
		// first one, so the reps measure the same thing.
		debug.FreeOSMemory()
		start := time.Now()
		in, err = setUp(w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		tpchGens = append(tpchGens, in.genTPCH.Seconds())
		ssbGens = append(ssbGens, in.genSSB.Seconds())
	}
	defer in.close()

	oracleStart := time.Now()
	if err := in.expectations(items); err != nil {
		return nil, err
	}
	oracleS := time.Since(oracleStart).Seconds()

	warmFailed := in.warm(items)
	str := newStream(seed, items)

	rep := map[string]any{
		"stamp":        newStamp(root, seed, w.tpchSF, w.ssbSF),
		"workload":     w.name,
		"traced":       traced,
		"clients":      clients,
		"setup_s_reps": setups,
		"oracle_s":     oracleS,
		"warm_failed":  warmFailed,
		"mix":          mixOf(items),
	}
	if w.rate > 0 {
		rep["loop"] = fmt.Sprintf("open, %g requests/s Poisson, %d senders", w.rate, clients)
	} else {
		rep["loop"] = fmt.Sprintf("closed, %d clients", clients)
	}

	if !traced {
		t, err := in.drive(items, str, seed, window, nil)
		if err != nil {
			return nil, err
		}
		ms, err := endToEnd(t, median(setups))
		if err != nil {
			return nil, err
		}
		rep["samples"] = len(t.lat)
		rep["slice_qps"] = t.sliceQPS()
		rep["p50_ms_by_item"] = t.labelMedians()
		rep["error_rate"] = t.errorRate()
		rep["generator_lag_ms"] = map[string]float64{"p50": t.lagP50, "p99": t.lagP99}
		rep["outcomes"] = t.counts()
		return &outcome{
			result: result{
				Correct:   t.wrong == 0 && t.failed == 0 && t.refused == 0 && warmFailed == 0,
				Attempted: t.attempted,
				Failed:    t.failed + t.refused + t.wrong,
				Metrics:   ms,
			},
			report: rep,
		}, nil
	}

	// Traced: the first half replays the stream exactly like an untraced
	// run with a span around each request; the second half replays the
	// same stream from its start with the per-layer calls.
	tr := newTracer()
	lt := newLayerTally()
	lt.put("setup.tpch_gen_s", median(tpchGens))
	lt.put("setup.ssb_gen_s", median(ssbGens))
	lt.put("bench.oracle_s", oracleS)
	if w.shards > 1 {
		if err := in.buildClusters(lt); err != nil {
			return nil, err
		}
	}
	before := in.counters()
	rt0 := readRuntime()
	t, err := in.drive(items, str, seed, window/2, tr)
	if err != nil {
		return nil, err
	}
	if t.backlogGrew {
		return nil, errBacklog
	}
	rt1 := readRuntime()
	after := in.counters()
	nAttrib, attribWrong := in.attribute(items, str, window/2, tr, lt)
	if w.shards > 1 {
		var fb uint64
		for _, cr := range in.clusters {
			_, _, f := cr.cl.Stats()
			fb += f
		}
		lt.put("exchange.fallback", float64(fb))
	}

	spansPath := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", w.name, seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	ms, unavailable := perLayer(w, t, lt, tr, before, after, rt0, rt1, nAttrib)
	rep["samples"] = len(t.lat)
	rep["attributed"] = nAttrib
	rep["spans"] = spansPath
	rep["unavailable"] = unavailable
	rep["outcomes"] = t.counts()
	return &outcome{
		result: result{
			Correct:   t.wrong == 0 && t.failed == 0 && t.refused == 0 && warmFailed == 0 && attribWrong == 0,
			Attempted: t.attempted,
			Failed:    t.failed + t.refused + t.wrong + attribWrong,
			Metrics:   ms,
		},
		report: rep,
	}, nil
}

// mixOf records the deck: how many times each item is drawn per pass.
func mixOf(items []*item) map[string]int {
	out := make(map[string]int, len(items))
	for _, it := range items {
		out[it.label] = it.weight
	}
	return out
}

var errBacklog = errors.New("invalid run: the open loop's backlog grew across the window (offered rate above capacity)")

// endToEnd turns an untraced window into the end-to-end metrics. Each
// rate and latency is the median over the window's slices. p99 is too
// when every slice holds enough samples for it, and otherwise is taken
// over the whole window.
func endToEnd(t *tally, setupS float64) (map[string]metric, error) {
	if t.backlogGrew {
		return nil, errBacklog
	}
	p99, ok := percentile(t.lat, 99)
	if !ok {
		return nil, fmt.Errorf("invalid run: %d verified requests cannot support p99 (at least %d needed)", len(t.lat), 100*minBeyond)
	}
	var qps, rows, cpu, p50s, p99s []float64
	everySlice := true
	for _, s := range t.slices {
		n := float64(len(s.lat))
		if n == 0 {
			return nil, errors.New("invalid run: a slice of the window completed no request")
		}
		qps = append(qps, n/s.dur.Seconds())
		rows = append(rows, float64(s.rows)/s.dur.Seconds())
		cpu = append(cpu, ms(s.cpu)/n)
		p50, _ := percentile(s.lat, 50)
		p50s = append(p50s, p50)
		v, ok := percentile(s.lat, 99)
		everySlice = everySlice && ok
		p99s = append(p99s, v)
	}
	if everySlice && len(p99s) > 0 {
		p99 = median(p99s)
	}
	return map[string]metric{
		"qps":              {median(qps), "1/s"},
		"latency_p50_ms":   {median(p50s), "ms"},
		"latency_p99_ms":   {p99, "ms"},
		"rows_per_s":       {median(rows), "1/s"},
		"cpu_ms_per_query": {median(cpu), "ms"},
		"verified_ratio":   {float64(len(t.lat)) / float64(t.attempted), "ratio"},
		"setup_s":          {setupS, "s"},
		"max_rss_mb":       {maxRSSMB(), "MB"},
	}, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set (VmHWM) in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample holds the Go runtime counters the per-layer metrics
// difference.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}
