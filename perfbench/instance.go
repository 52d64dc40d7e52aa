package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"paradigms"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/prepcache"
	"paradigms/internal/proto"
	"paradigms/internal/proto/client"
	"paradigms/internal/server"
	"paradigms/internal/sqlcheck"
)

// instance is one set-up system under test.
type instance struct {
	w         workload
	tpch, ssb *paradigms.DB
	svc       *server.Service

	// HTTP workloads only.
	front  http.Handler
	hs     *http.Server
	served chan struct{}
	tr     *http.Transport
	cl     *client.Client

	genTPCH, genSSB time.Duration

	// Traced sharded runs: the benchmark's own clusters, for the direct
	// exchange calls (the service keeps its clusters private).
	clusters map[*paradigms.DB]*clusterRef
}

// setUp generates the data and starts the service, its listener and the
// client, then prepares the templates: everything before the first
// request.
func setUp(w workload) (*instance, error) {
	in := &instance{w: w}
	start := time.Now()
	in.tpch = paradigms.GenerateTPCH(w.tpchSF, 0)
	in.genTPCH = time.Since(start)
	if w.ssbSF > 0 {
		start = time.Now()
		in.ssb = paradigms.GenerateSSB(w.ssbSF, 0)
		in.genSSB = time.Since(start)
	}
	// cmd/serve's defaults: metrics on, validation off, no query log,
	// default admission.
	m := obs.NewMetrics()
	in.svc = paradigms.NewService(in.tpch, in.ssb, paradigms.ServiceOptions{
		SkipValidation: true,
		Metrics:        m,
		Shards:         w.shards,
	})
	if w.shards > 1 {
		return in, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.svc.Close()
		return nil, err
	}
	in.front = proto.NewServer(in.svc, nil).WithMetrics(m).Handler()
	in.hs = &http.Server{Handler: in.front}
	in.served = make(chan struct{})
	go func() {
		defer close(in.served)
		in.hs.Serve(ln)
	}()
	in.tr = &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	in.cl = client.New("http://"+ln.Addr().String(), "")
	in.cl.HTTP = &http.Client{Transport: in.tr}
	if w.name == "prepared" {
		for _, t := range templates {
			if _, err := in.cl.Prepare(context.Background(), t.text); err != nil {
				in.close()
				return nil, fmt.Errorf("prepare %s: %w", t.name, err)
			}
		}
	}
	return in, nil
}

// close stops the listener, waits for its goroutine, and drains the
// service.
func (in *instance) close() {
	if in.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		in.hs.Shutdown(ctx)
		cancel()
		<-in.served
		in.tr.CloseIdleConnections()
	}
	in.svc.Close()
}

// dbFor routes a text to its database the way the service does.
func (in *instance) dbFor(text string) (*paradigms.DB, error) {
	return logical.RouteByTables(text, in.tpch, in.ssb)
}

// expectations computes every item's expected result with the oracles:
// the hand-written reference queries for canonical texts, the naive SQL
// evaluator otherwise.
func (in *instance) expectations(items []*item) error {
	done := make(map[string]*expect)
	for _, it := range items {
		key := it.sql + "\x00" + fmt.Sprint(it.args)
		if e, ok := done[key]; ok {
			it.want = e
			continue
		}
		db, err := in.dbFor(it.sql)
		if err != nil {
			return err
		}
		switch {
		case it.query == "export":
			rows, err := sqlcheck.Oracle(db, it.sql)
			if err != nil {
				return fmt.Errorf("oracle %s: %w", it.label, err)
			}
			it.want = expectChecksum(rows)
		case it.prepared:
			rows, err := sqlcheck.Oracle(db, sqlcheck.Substitute(it.sql, literals(it.args)))
			if err != nil {
				return fmt.Errorf("oracle %s: %w", it.label, err)
			}
			it.want = expectRows(it.sql, rows)
		default:
			it.want = expectRows(it.sql, sqlcheck.RefRows(db, it.query))
		}
		done[key] = it.want
	}
	return nil
}

// literals spells bindings as SQL literals: dates need the date keyword
// outside a prepared statement.
func literals(args []string) []string {
	out := make([]string, len(args))
	for i, a := range args {
		if _, err := time.Parse(time.DateOnly, a); err == nil {
			a = "date '" + a + "'"
		}
		out[i] = a
	}
	return out
}

// warm runs every item once before timing, so plan caches, the auto
// router and the allocator have settled. It returns how many failed or
// were wrong.
func (in *instance) warm(items []*item) int {
	bad := 0
	for _, it := range items {
		if r := in.do(context.Background(), it); r.outcome != outOK {
			bad++
		}
	}
	return bad
}

// Request outcomes.
const (
	outOK = iota
	outFailed
	outRefused
	outWrong
)

type reqResult struct {
	outcome int
	rows    int64
	lat     time.Duration // from send (closed loop) or due time (open loop)
}

// do sends one request as a user would and verifies its response. The
// latency ends at the last row decoded; verification of what needs a
// sort happens after that.
func (in *instance) do(ctx context.Context, it *item) reqResult {
	start := time.Now()
	if in.w.shards > 1 {
		res, err := in.svc.Do(ctx, it.engine, it.sql)
		lat := time.Since(start)
		if err != nil {
			return reqResult{outcome: failure(err), lat: lat}
		}
		rows := res.(*logical.Result).Rows
		if !it.want.verify(rows) {
			return reqResult{outcome: outWrong, rows: int64(len(rows)), lat: lat}
		}
		return reqResult{outcome: outOK, rows: int64(len(rows)), lat: lat}
	}
	var (
		rs  *client.Rows
		err error
	)
	if it.prepared {
		rs, err = in.cl.QueryPrepared(ctx, it.engine, it.sql, it.args...)
	} else {
		rs, err = in.cl.Query(ctx, it.engine, it.sql)
	}
	if err != nil {
		return reqResult{outcome: failure(err), lat: time.Since(start)}
	}
	defer rs.Close()
	c := checker{e: it.want}
	for rs.Next() {
		c.row(rs.Row())
	}
	lat := time.Since(start)
	if err := rs.Err(); err != nil {
		return reqResult{outcome: failure(err), rows: c.n, lat: lat}
	}
	if !c.ok() {
		return reqResult{outcome: outWrong, rows: c.n, lat: lat}
	}
	return reqResult{outcome: outOK, rows: c.n, lat: lat}
}

func failure(err error) int {
	var re *client.RetryError
	if errors.As(err, &re) || errors.Is(err, server.ErrOverloaded) {
		return outRefused
	}
	return outFailed
}

// tally is one measured window.
type tally struct {
	lat     []float64 // ms, verified requests only
	rows    int64
	elapsed time.Duration
	cpu     time.Duration

	attempted, failed, refused, wrong int

	// slices splits the window by completion time; see endToEnd.
	slices []slice

	// Open loop only.
	lagP50      float64 // generator lateness, ms
	lagP99      float64
	backlogGrew bool

	reqLat  map[int]float64      // stream position → latency ms
	byLabel map[string][]float64 // item label → latencies ms
}

// nSlices is how many equal parts of the window the end-to-end metrics
// are computed over: each is the median of its per-slice values, so a
// stall of a few seconds (a descheduled vCPU, a noisy neighbour) moves
// one slice rather than the result.
const nSlices = 5

// slice is one part of a measured window.
type slice struct {
	lat  []float64 // ms, verified requests that completed in the slice
	rows int64
	cpu  time.Duration
	dur  time.Duration
}

func (t *tally) sliceQPS() []float64 {
	out := make([]float64, len(t.slices))
	for k, s := range t.slices {
		out[k] = float64(len(s.lat)) / s.dur.Seconds()
	}
	return out
}

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed+t.refused+t.wrong) / float64(t.attempted)
}

// labelMedians is each item's median latency in ms, with its count.
func (t *tally) labelMedians() map[string][2]float64 {
	out := make(map[string][2]float64, len(t.byLabel))
	for l, xs := range t.byLabel {
		out[l] = [2]float64{median(xs), float64(len(xs))}
	}
	return out
}

func (t *tally) counts() map[string]int {
	return map[string]int{"attempted": t.attempted, "verified": len(t.lat),
		"failed": t.failed, "refused": t.refused, "wrong": t.wrong}
}

func (t *tally) add(i int, label string, r reqResult) {
	t.attempted++
	t.rows += r.rows
	switch r.outcome {
	case outOK:
		ms := ms(r.lat)
		t.lat = append(t.lat, ms)
		t.reqLat[i] = ms
		t.byLabel[label] = append(t.byLabel[label], ms)
	case outFailed:
		t.failed++
	case outRefused:
		t.refused++
	case outWrong:
		t.wrong++
	}
}

// drive runs the workload's loop over the stream for the window.
func (in *instance) drive(items []*item, str *stream, seed int64, window time.Duration, tr *tracer) (*tally, error) {
	t := &tally{reqLat: map[int]float64{}, byLabel: map[string][]float64{}, slices: make([]slice, nSlices)}
	sliceLen := window / nSlices
	var mu sync.Mutex
	start := time.Now()
	record := func(i int, sent time.Time, r reqResult) {
		tr.add(i, 0, "request", sent, sent.Add(r.lat))
		// Requests that complete after the window (closed-loop clients
		// finishing their last one, the open loop draining) count in the
		// totals but in no slice: the tail has fewer senders busy.
		k := int(time.Since(start) / sliceLen)
		mu.Lock()
		t.add(i, items[str.at(i)].label, r)
		if k < nSlices {
			t.slices[k].rows += r.rows
			if r.outcome == outOK {
				t.slices[k].lat = append(t.slices[k].lat, ms(r.lat))
			}
		}
		mu.Unlock()
	}

	// CPU time at every slice boundary. The loops below return no
	// earlier than the end of the window, so the sampler always finishes.
	cpuAt := make([]time.Duration, nSlices+1)
	cpuAt[0] = cpuTime()
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for k := 1; k <= nSlices; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * sliceLen)))
			cpuAt[k] = cpuTime()
		}
	}()

	if in.w.rate > 0 {
		in.openLoop(items, str, seed, start, window, t, record)
	} else {
		in.closedLoop(items, str, start.Add(window), record)
	}
	sampler.Wait()
	t.elapsed = time.Since(start)
	t.cpu = cpuTime() - cpuAt[0]
	for k := range t.slices {
		t.slices[k].cpu = cpuAt[k+1] - cpuAt[k]
		t.slices[k].dur = sliceLen
	}
	return t, nil
}

// closedLoop: each client sends its next request when the previous one
// has been decoded, until the deadline; requests in flight at the
// deadline complete and count.
func (in *instance) closedLoop(items []*item, str *stream, deadline time.Time, record func(int, time.Time, reqResult)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				start := time.Now()
				record(i, start, in.do(context.Background(), items[str.at(i)]))
			}
		}()
	}
	wg.Wait()
}

// backlogSlack is how much the mean backlog of the window's last quarter
// may exceed that of its first quarter before the run is invalid.
const backlogSlack = 4

// openLoop: a generator releases requests at seeded Poisson arrival
// times; `clients` senders take them in order. Each request is timed
// from when it was due, so a stall also delays the requests behind it.
func (in *instance) openLoop(items []*item, str *stream, seed int64, start time.Time, window time.Duration, t *tally, record func(int, time.Time, reqResult)) {
	type job struct {
		i   int
		due time.Time
	}
	// Sized for every arrival of the window at twice the offered rate,
	// so the generator never blocks on a slow sender and its lateness
	// measures only itself.
	queue := make(chan job, int(2*in.w.rate*window.Seconds())+16)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				r := in.do(context.Background(), items[str.at(j.i)])
				r.lat = time.Since(j.due)
				record(j.i, j.due, r)
			}
		}()
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	var lags []float64
	type point struct {
		at      time.Duration
		backlog int
	}
	var backlog []point
	due := start
	for i := 0; ; i++ {
		due = due.Add(time.Duration(r.ExpFloat64() / in.w.rate * float64(time.Second)))
		if due.Sub(start) >= window {
			break
		}
		time.Sleep(time.Until(due))
		lags = append(lags, float64(time.Since(due))/float64(time.Millisecond))
		backlog = append(backlog, point{due.Sub(start), len(queue)})
		queue <- job{i, due}
	}
	time.Sleep(time.Until(start.Add(window)))
	close(queue)
	wg.Wait()
	t.lagP50, _ = percentile(lags, 50)
	t.lagP99, _ = percentile(lags, 99)
	var first, last []float64
	for _, p := range backlog {
		switch {
		case p.at < window/4:
			first = append(first, float64(p.backlog))
		case p.at >= window*3/4:
			last = append(last, float64(p.backlog))
		}
	}
	t.backlogGrew = len(first) > 0 && len(last) > 0 &&
		sum(last)/float64(len(last)) > sum(first)/float64(len(first))+backlogSlack
}

// counters snapshots the service-side counters the per-layer metrics
// difference across the traced window.
type counters struct {
	hits, misses, rejected uint64
	arms                   map[string]uint64
	replans                uint64
}

func (in *instance) counters() counters {
	st := in.svc.Stats()
	c := counters{hits: st.PlanCacheHits, misses: st.PlanCacheMisses, rejected: st.Rejected, arms: map[string]uint64{}}
	if in.w.name != "prepared" {
		return c
	}
	for _, t := range templates {
		p, err := in.svc.Prepare(t.text)
		if err != nil {
			continue
		}
		st := p.Stmt().(*prepcache.Statement)
		for _, a := range st.Router().Snapshot() {
			c.arms[a.Engine] += a.N
		}
		c.replans += st.Replans()
	}
	return c
}
