package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"paradigms"
	"paradigms/internal/compiled"
	"paradigms/internal/exchange"
	"paradigms/internal/hybrid"
	"paradigms/internal/logical"
	"paradigms/internal/prepcache"
	"paradigms/internal/proto"
	"paradigms/internal/server"
	"paradigms/internal/sql"
)

// perLayerMetrics are the traced run's metrics, in BENCHMARK.json order.
// Every name is reported on every workload; a layer the workload does
// not reach reads 0 and the report line says why.
var perLayerMetrics = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"proto.handler_ms", "ms"}, {"proto.encode_ms", "ms"}, {"proto.decode_ms", "ms"},
		{"proto.bytes_per_row", "B/row"}, {"proto.net_ms", "ms"},
		{"server.queue_wait_ms.p50", "ms"}, {"server.queue_wait_ms.p99", "ms"},
		{"server.overhead_ms", "ms"}, {"server.overloaded", "count"},
		{"prepcache.hit_ratio", "ratio"}, {"prepcache.bind_us", "us"},
	}
	for _, t := range templates {
		out = append(out, struct{ name, unit string }{"prepcache.exec_ms." + t.name, "ms"})
	}
	out = append(out, []struct{ name, unit string }{
		{"prepcache.auto_share.typer", "ratio"}, {"prepcache.replans", "count"},
		{"sql.parse_us", "us"}, {"sql.bind_us", "us"}, {"logical.plan_us", "us"},
	}...)
	for _, layer := range []string{"compiled", "logical", "hybrid", "exchange"} {
		name := layer + ".exec_ms."
		if layer == "exchange" {
			name = "exchange.run_ms."
		}
		for _, q := range olapQueries {
			out = append(out, struct{ name, unit string }{name + q.name, "ms"})
		}
		if layer == "compiled" || layer == "logical" {
			out = append(out, struct{ name, unit string }{name + "export", "ms"})
		}
	}
	return append(out, []struct{ name, unit string }{
		{"hybrid.compiled_share", "ratio"},
		{"exchange.shard_ms.max", "ms"}, {"exchange.shard_skew", "ratio"},
		{"exchange.merge_ms", "ms"}, {"exchange.fallback", "count"},
		{"setup.tpch_gen_s", "s"}, {"setup.ssb_gen_s", "s"}, {"setup.partition_s", "s"},
		{"go.alloc_bytes_per_query", "B"}, {"go.gc_cpu_frac", "ratio"},
		{"bench.oracle_s", "s"}, {"bench.generator_lag_p99_ms", "ms"},
		{"trace.request_p50_ms", "ms"}, {"attrib.engine_share", "ratio"},
		{"attrib.proto_share", "ratio"}, {"attrib.requests", "count"},
	}...)
}()

// engineLayer names the module whose execution entry point serves an
// engine: typer runs internal/compiled, tectorwise the vectorized
// lowering in internal/logical.
var engineLayer = map[string]string{"typer": "compiled", "tectorwise": "logical", "hybrid": "hybrid"}

// layerTally collects what the per-layer calls measured.
type layerTally struct {
	mu      sync.Mutex
	scalars map[string]float64
	reqs    map[int]*attribReq

	compiledNs, hybridNs int64 // hybrid pipelines' time by backend
	bodyBytes, bodyRows  int64
}

// attribReq is one stream position's per-layer measurements.
type attribReq struct {
	it        *item
	queueWait float64 // ms
	latency   float64 // Handle.Latency, ms
	shardMs   []float64
}

func newLayerTally() *layerTally {
	return &layerTally{scalars: map[string]float64{}, reqs: map[int]*attribReq{}}
}

func (lt *layerTally) put(name string, v float64) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.scalars[name] = v
}

// clusterRef is one of the benchmark's own clusters.
type clusterRef struct {
	cl   *exchange.Cluster
	keys map[string]string
}

// buildClusters partitions each database the way Shards does in the
// service, timing exchange.New.
func (in *instance) buildClusters(lt *layerTally) error {
	in.clusters = map[*paradigms.DB]*clusterRef{}
	start := time.Now()
	for _, db := range []*paradigms.DB{in.tpch, in.ssb} {
		if db == nil {
			continue
		}
		cl, err := exchange.New(db, in.w.shards)
		if err != nil {
			return err
		}
		in.clusters[db] = &clusterRef{cl: cl, keys: exchange.PartitionKeys(db)}
	}
	lt.put("setup.partition_s", time.Since(start).Seconds())
	return nil
}

// attribute replays the stream from its start with the per-layer calls,
// `clients` at a time, until the budget is spent. It returns how many
// requests it covered and how many direct results were wrong.
func (in *instance) attribute(items []*item, str *stream, budget time.Duration, tr *tracer, lt *layerTally) (int, int) {
	deadline := time.Now().Add(budget)
	var next, wrong atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				it := items[str.at(i)]
				ar := &attribReq{it: it}
				root := tr.open(i, 0, "attrib")
				ok := in.attribOne(context.Background(), i, root, it, ar, tr, lt)
				tr.end(root)
				if !ok {
					wrong.Add(1)
				}
				lt.mu.Lock()
				lt.reqs[i] = ar
				lt.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return int(next.Load()), int(wrong.Load())
}

// discard is a RowSink that drops every row.
type discard struct{}

func (discard) SetCols([]logical.OutCol) error { return nil }
func (discard) PushRows([][]int64) error       { return nil }

// counting is a RowSink that counts rows.
type counting struct{ n int64 }

func (c *counting) SetCols([]logical.OutCol) error { return nil }
func (c *counting) PushRows(r [][]int64) error     { c.n += int64(len(r)); return nil }

// attribOne makes the per-layer calls for one request; false means a
// direct call returned a wrong result or failed.
func (in *instance) attribOne(ctx context.Context, i, root int, it *item, ar *attribReq, tr *tracer, lt *layerTally) bool {
	ok := true
	if in.w.shards <= 1 && !in.protoCalls(i, root, it, tr, lt) {
		ok = false
	}

	// The service alone: the same request into a discarding sink (or
	// materialized, in process, for the sharded workload).
	req := server.Req{Engine: it.engine, Query: it.sql}
	if in.w.shards <= 1 {
		req.Sink = discard{}
	}
	var st *prepcache.Statement
	if it.prepared {
		p, err := in.svc.Prepare(it.sql)
		if err != nil {
			return false
		}
		st = p.Stmt().(*prepcache.Statement)
		req.Prep, req.Args = p, it.args
	}
	var h *server.Handle
	var err error
	tr.timed(i, root, "server.submit", func() {
		h, err = in.svc.SubmitReq(ctx, req)
		if err == nil {
			_, err = h.Wait(ctx)
		}
	})
	if err != nil {
		return false
	}
	ar.queueWait = ms(h.QueueWait())
	ar.latency = ms(h.Latency())
	workers := max(1, h.Workers())

	if it.prepared {
		var vals []int64
		tr.timed(i, root, "prepcache.bind", func() { vals, err = st.BindTexts(it.args) })
		if err != nil {
			return false
		}
		var res *logical.Result
		tr.timed(i, root, "prepcache.exec", func() {
			res, _, err = st.Execute(ctx, prepcache.BaseEngine(h.EngineUsed()), vals, workers, 0)
		})
		return ok && err == nil && it.want.verify(res.Rows)
	}

	db, err := in.dbFor(it.sql)
	if err != nil {
		return false
	}
	cat := logical.CatalogFor(db)
	var sel *sql.Select
	var pl *logical.Plan
	tr.timed(i, root, "sql.parse", func() { sel, err = sql.Parse(it.sql) })
	if err == nil {
		tr.timed(i, root, "sql.bind", func() { err = sql.Bind(sel, cat) })
	}
	if err == nil {
		tr.timed(i, root, "logical.plan", func() { pl, err = logical.PlanQueryHints(sel, cat, nil) })
	}
	if err != nil {
		return false
	}
	if in.w.shards > 1 {
		return ok && in.exchangeCalls(ctx, i, root, it, db, pl, workers, tr, ar)
	}

	sink := &counting{}
	name := engineLayer[it.engine] + ".exec"
	tr.timed(i, root, name, func() {
		switch it.engine {
		case "typer":
			err = compiled.ExecuteStream(ctx, pl, workers, 0, sink)
		case "tectorwise":
			err = pl.ExecuteStream(ctx, workers, 0, 0, sink)
		case "hybrid":
			var rep *hybrid.Report
			rep, err = hybrid.ExecuteStreamRouted(ctx, pl, workers, 0, 0, nil, sink)
			if err == nil && rep != nil {
				var c, all int64
				for k, ns := range rep.Nanos {
					all += ns
					if rep.Assign[k] == hybrid.EngineCompiled {
						c += ns
					}
				}
				lt.mu.Lock()
				lt.compiledNs += c
				lt.hybridNs += all
				lt.mu.Unlock()
			}
		}
	})
	return ok && err == nil && sink.n == it.want.count
}

// protoCalls runs the request through the front end's handler into an
// in-memory writer, then decodes the captured body frame by frame.
func (in *instance) protoCalls(i, root int, it *item, tr *tracer, lt *layerTally) bool {
	body, _ := json.Marshal(proto.QueryRequest{Engine: it.engine, SQL: it.sql, Prepared: it.prepared, Args: it.args})
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body))
	tr.timed(i, root, "proto.handler", func() { in.front.ServeHTTP(rec, hreq) })
	raw := rec.Body.Bytes()

	var frames []*proto.Frame
	var err error
	tr.timed(i, root, "proto.decode", func() {
		for _, line := range bytes.Split(raw, []byte{'\n'}) {
			if len(line) == 0 {
				continue
			}
			var f *proto.Frame
			if f, err = proto.DecodeFrame(line); err != nil {
				return
			}
			frames = append(frames, f)
		}
	})
	if err != nil || rec.Code != 200 {
		return false
	}
	c := checker{e: it.want}
	for _, f := range frames {
		for _, r := range f.Rows {
			c.row(r)
		}
	}
	lt.mu.Lock()
	lt.bodyBytes += int64(len(raw))
	lt.bodyRows += c.n
	lt.mu.Unlock()
	return c.ok()
}

// exchangeCalls runs the text through the benchmark's own cluster, then
// by hand: every shard's partial concurrently, and the merge.
func (in *instance) exchangeCalls(ctx context.Context, i, root int, it *item, db *paradigms.DB, pl *logical.Plan, workers int, tr *tracer, ar *attribReq) bool {
	cr := in.clusters[db]
	req := exchange.Request{SQL: it.sql, Engine: it.engine, Workers: workers}
	var res *logical.Result
	var err error
	tr.timed(i, root, "exchange.run", func() { res, err = cr.cl.Run(ctx, req) })
	if err != nil || !it.want.verify(res.Rows) {
		return false
	}
	dp, derr := logical.Distribute(pl, cr.keys)
	if derr != nil || dp.Mode == logical.DistSingle {
		return true // not scattered: Cluster.Run above counted it
	}
	req.Workers = max(1, workers/cr.cl.Shards())
	parts := make([]*logical.Partial, cr.cl.Shards())
	errs := make([]error, len(parts))
	ar.shardMs = make([]float64, len(parts))
	scatter := tr.open(i, root, "exchange.scatter")
	var wg sync.WaitGroup
	for k := range parts {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			d := tr.timed(i, scatter, "exchange.shard", func() { parts[k], errs[k] = cr.cl.Shard(k).Partial(ctx, req) })
			ar.shardMs[k] = ms(d)
		}(k)
	}
	wg.Wait()
	tr.end(scatter)
	for _, e := range errs {
		if e != nil {
			return false
		}
	}
	tr.timed(i, root, "exchange.merge", func() { res, err = pl.MergePartials(parts) })
	return err == nil && it.want.verify(res.Rows)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perLayer derives the per-layer metrics from the traced run. The second
// result maps each metric that had nothing to measure to the reason.
func perLayer(w workload, t *tally, lt *layerTally, tr *tracer, before, after counters, rt0, rt1 runtimeSample, nAttrib int) (map[string]metric, map[string]string) {
	vals := map[string]float64{}
	for k, v := range lt.scalars {
		vals[k] = v
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	// by[{request, name}] is the request's self time in that layer, ms
	// (summed where a name repeats within a request: exchange.shard, whose
	// per-shard times are kept in attribReq.shardMs instead).
	type key struct {
		req  int
		name string
	}
	by := map[key]float64{}
	for _, s := range spans {
		by[key{s.Req, s.Name}] += float64(self[s.ID]) / 1e6
	}
	col := func(name string, keep func(ar *attribReq) bool) []float64 {
		var out []float64
		for i, ar := range lt.reqs {
			if v, ok := by[key{i, name}]; ok && (keep == nil || keep(ar)) {
				out = append(out, v)
			}
		}
		return out
	}
	derived := func(f func(i int, ar *attribReq) (float64, bool)) []float64 {
		var out []float64
		for i, ar := range lt.reqs {
			if v, ok := f(i, ar); ok {
				out = append(out, v)
			}
		}
		return out
	}
	setMedian := func(name string, xs []float64, scale float64) {
		if len(xs) > 0 {
			vals[name] = median(xs) * scale
		}
	}
	get := func(i int, name string) (float64, bool) { v, ok := by[key{i, name}]; return v, ok }

	setMedian("proto.handler_ms", col("proto.handler", nil), 1)
	setMedian("proto.decode_ms", col("proto.decode", nil), 1)
	setMedian("proto.encode_ms", derived(func(i int, _ *attribReq) (float64, bool) {
		h, ok1 := get(i, "proto.handler")
		s, ok2 := get(i, "server.submit")
		return h - s, ok1 && ok2
	}), 1)
	if lt.bodyRows > 0 {
		vals["proto.bytes_per_row"] = float64(lt.bodyBytes) / float64(lt.bodyRows)
	}
	setMedian("proto.net_ms", derived(func(i int, _ *attribReq) (float64, bool) {
		h, ok1 := get(i, "proto.handler")
		r, ok2 := t.reqLat[i]
		return r - h, ok1 && ok2
	}), 1)

	var waits []float64
	for _, ar := range lt.reqs {
		if ar.latency > 0 {
			waits = append(waits, ar.queueWait)
		}
	}
	unavailable := map[string]string{}
	if len(waits) > 0 {
		vals["server.queue_wait_ms.p50"], _ = percentile(waits, 50)
		if v, ok := percentile(waits, 99); ok {
			vals["server.queue_wait_ms.p99"] = v
		} else {
			unavailable["server.queue_wait_ms.p99"] = fmt.Sprintf("%d direct submissions; p99 needs %d", len(waits), 100*minBeyond)
		}
	}
	setMedian("server.overhead_ms", derived(func(i int, ar *attribReq) (float64, bool) {
		if ar.latency == 0 {
			return 0, false
		}
		inner := 0.0
		for _, n := range []string{"sql.parse", "sql.bind", "logical.plan", "compiled.exec", "logical.exec", "hybrid.exec", "prepcache.bind", "prepcache.exec", "exchange.run"} {
			if v, ok := get(i, n); ok {
				inner += v
			}
		}
		return ar.latency - inner, true
	}), 1)
	vals["server.overloaded"] = float64(after.rejected - before.rejected)

	if dh, dm := after.hits-before.hits, after.misses-before.misses; dh+dm > 0 {
		vals["prepcache.hit_ratio"] = float64(dh) / float64(dh+dm)
	}
	setMedian("prepcache.bind_us", col("prepcache.bind", nil), 1e3)
	for _, tp := range templates {
		setMedian("prepcache.exec_ms."+tp.name, col("prepcache.exec", func(ar *attribReq) bool { return ar.it.query == tp.name }), 1)
	}
	var arms, typer uint64
	for e, n := range after.arms {
		arms += n - before.arms[e]
	}
	typer = after.arms["typer"] - before.arms["typer"]
	if arms > 0 {
		vals["prepcache.auto_share.typer"] = float64(typer) / float64(arms)
	}
	if w.name == "prepared" {
		vals["prepcache.replans"] = float64(after.replans)
	}

	setMedian("sql.parse_us", col("sql.parse", nil), 1e3)
	setMedian("sql.bind_us", col("sql.bind", nil), 1e3)
	setMedian("logical.plan_us", col("logical.plan", nil), 1e3)
	for _, layer := range []string{"compiled", "logical", "hybrid"} {
		for _, q := range append(olapNames(), "export") {
			setMedian(layer+".exec_ms."+q, col(layer+".exec", func(ar *attribReq) bool { return ar.it.query == q }), 1)
		}
	}
	if lt.hybridNs > 0 {
		vals["hybrid.compiled_share"] = float64(lt.compiledNs) / float64(lt.hybridNs)
	}
	for _, q := range olapNames() {
		setMedian("exchange.run_ms."+q, col("exchange.run", func(ar *attribReq) bool { return ar.it.query == q }), 1)
	}
	var shardMax, skew []float64
	for _, ar := range lt.reqs {
		if len(ar.shardMs) > 0 {
			lo, hi := ar.shardMs[0], ar.shardMs[0]
			for _, v := range ar.shardMs {
				lo, hi = min(lo, v), max(hi, v)
			}
			shardMax = append(shardMax, hi)
			if lo > 0 {
				skew = append(skew, hi/lo)
			}
		}
	}
	setMedian("exchange.shard_ms.max", shardMax, 1)
	setMedian("exchange.shard_skew", skew, 1)
	setMedian("exchange.merge_ms", col("exchange.merge", nil), 1)

	if len(t.lat) > 0 {
		vals["go.alloc_bytes_per_query"] = (rt1.allocBytes - rt0.allocBytes) / float64(t.attempted)
		if d := rt1.totalCPU - rt0.totalCPU; d > 0 {
			vals["go.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / d
		}
		vals["trace.request_p50_ms"], _ = percentile(t.lat, 50)
	}
	if w.rate > 0 {
		vals["bench.generator_lag_p99_ms"] = t.lagP99
	}
	setMedian("attrib.engine_share", derived(func(i int, ar *attribReq) (float64, bool) {
		r, ok := t.reqLat[i]
		if !ok || r <= 0 {
			return 0, false
		}
		for _, n := range []string{"compiled.exec", "logical.exec", "hybrid.exec", "prepcache.exec", "exchange.run"} {
			if v, ok := get(i, n); ok {
				return v / r, true
			}
		}
		return 0, false
	}), 1)
	setMedian("attrib.proto_share", derived(func(i int, _ *attribReq) (float64, bool) {
		r, ok := t.reqLat[i]
		h, ok1 := get(i, "proto.handler")
		s, ok2 := get(i, "server.submit")
		d, ok3 := get(i, "proto.decode")
		if !ok || !ok1 || !ok2 || !ok3 || r <= 0 {
			return 0, false
		}
		return (h - s + d) / r, true
	}), 1)
	vals["attrib.requests"] = float64(nAttrib)

	out := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		v, ok := vals[m.name]
		if !ok {
			if _, noted := unavailable[m.name]; !noted {
				unavailable[m.name] = "not on the " + w.name + " workload's path"
			}
		}
		out[m.name] = metric{v, m.unit}
	}
	return out, unavailable
}

func olapNames() []string {
	out := make([]string, len(olapQueries))
	for i, q := range olapQueries {
		out[i] = q.name
	}
	return out
}
