package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dialog"
	"repro/internal/exec"
	"repro/internal/serve"
	"repro/internal/sql"
	"repro/internal/store"
)

// serveScale is the university scale nliserver serves by default.
const serveScale = 4

// serveClients is the number of closed-loop sessions: one per CPU of
// the two-CPU machine the benchmark is sized for.
const serveClients = 2

// writeTable is the table serve-mixed writes into; answers over it are
// checked against the oracle at the version the answer was read at.
const writeTable = "enrollments"

type serveEnv struct {
	db  *store.DB
	eng *core.Engine
	srv *serve.Server
}

func setupServe() (*serveEnv, setupTimes) {
	var st setupTimes
	start := time.Now()
	db := dataset.University(serveScale)
	st.dataset = time.Since(start).Seconds()
	t0 := time.Now()
	eng := core.NewEngine(db, core.DefaultOptions())
	st.engine = time.Since(t0).Seconds()
	srv := serve.New(eng, serve.Config{})
	st.total = time.Since(start).Seconds()
	return &serveEnv{db: db, eng: eng, srv: srv}, st
}

func (env *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return env.srv.Shutdown(ctx)
}

// serveWant is the verified outcome of one distinct serve input.
type serveWant struct {
	d      digest
	stmt   *sql.SelectStmt // nil when refused
	writes bool            // its SQL reads writeTable
}

// verifyServe answers every distinct input once on a separate engine
// over the same database with the answer cache off, so the server
// under test starts with cold caches, and checks each answer against
// the oracle on the pinned snapshot. Dialogue turns run in order on a
// fresh conversation per dialogue case.
func verifyServe(db *store.DB, pools *servePools) ([]serveWant, verification, error) {
	opts := core.DefaultOptions()
	opts.AnswerCacheSize = 0
	eng := core.NewEngine(db, opts)
	sn := db.Snapshot()
	answers := make([]answered, len(pools.Inputs))
	convs := map[int]*core.Conversation{}
	for i, in := range pools.Inputs {
		answers[i] = answered{in: in, sn: sn}
		a := &answers[i]
		if in.Dialogue < 0 {
			a.ans, a.err = eng.Ask(in.Text)
			continue
		}
		conv := convs[in.Dialogue]
		if conv == nil {
			conv = eng.NewConversation()
			convs[in.Dialogue] = conv
		}
		if a.ans, _, a.err = conv.Ask(in.Text); a.ans == nil && a.err != nil {
			a.ans = &core.Answer{} // the dialogue layer declined the turn: a refusal
		}
	}
	ver, err := verify(answers)
	if err != nil {
		return nil, ver, err
	}
	want := make([]serveWant, len(answers))
	for i, a := range answers {
		want[i].d = ver.want[i]
		if a.ans.SQL == nil {
			continue
		}
		want[i].stmt = a.ans.SQL
		for _, t := range sql.Tables(a.ans.SQL) {
			want[i].writes = want[i].writes || t == writeTable
		}
	}
	return want, ver, nil
}

// opRecord is one timed ask, kept for the check after the window: the
// answer must equal the oracle at some version of writeTable between
// the ones read just before and just after the request.
type opRecord struct {
	input  int
	v0, v1 uint64
	status int
	got    digest
}

// serveRun is the shared state of the serve-mixed clients.
type serveRun struct {
	env    *serveEnv
	pools  *servePools
	traced bool

	// Written batches, in publish order, and the number of them applied
	// at each writeTable version. The check after the window rebuilds a
	// version from these instead of pinning every version's snapshot,
	// which would hold hundreds of megabytes live under the server.
	wmu     sync.Mutex // orders a write with the version recorded for it
	batches [][]store.Row
	applied map[uint64]int

	tmu      sync.Mutex // traced runs: one request (root + replay) at a time
	tr       *tracer
	rep      *replayer
	sessions map[string]*dialog.Session
	req      int
	allocs   []float64
	gcPause  time.Duration
	respSize []float64
}

// serveClient is one closed-loop session's observations.
type serveClient struct {
	stream   *serveStream
	lat      []time.Duration
	starts   []time.Time // of each ask
	writeLat []time.Duration
	ops      []opRecord
	asks     int
	failed   int // write errors and replay mismatches; answers are checked after the window
}

type askResponse struct {
	SQL     string   `json:"sql"`
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
	Cached  bool     `json:"cached"`
	Timings struct {
		QueueUS int64 `json:"queue_us"`
		TotalUS int64 `json:"total_us"`
	} `json:"timings"`
}

// jsonValue maps a decoded JSON cell back onto the store value the
// server encoded, so the response digests like the oracle's rows.
func jsonValue(x any) store.Value {
	switch v := x.(type) {
	case json.Number:
		if i, err := v.Int64(); err == nil {
			return store.Int(i)
		}
		f, _ := v.Float64() // the server encoded a float64, so it parses
		return store.Float(f)
	case string:
		return store.Text(v)
	case bool:
		return store.Bool(v)
	}
	return store.Null()
}

func decodeResponse(body []byte) (askResponse, digest, error) {
	var resp askResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return resp, digest{}, err
	}
	rows := make([]store.Row, len(resp.Rows))
	for i, r := range resp.Rows {
		row := make(store.Row, len(r))
		for j, x := range r {
			row[j] = jsonValue(x)
		}
		rows[i] = row
	}
	return resp, digestRows(len(resp.Columns), rows), nil
}

func (s *serveRun) loop(c *serveClient, deadline time.Time) {
	for time.Now().Before(deadline) {
		op := c.stream.next()
		if s.traced {
			s.tmu.Lock()
		}
		if op.Write != nil {
			s.write(c, op)
		} else {
			s.ask(c, op)
		}
		if s.traced {
			s.tmu.Unlock()
		}
	}
}

func (s *serveRun) write(c *serveClient, op serveOp) {
	s.wmu.Lock()
	t0 := time.Now()
	err := s.env.db.BulkInsert(writeTable, op.Write)
	t1 := time.Now()
	if err == nil {
		s.batches = append(s.batches, op.Write)
		s.applied[s.env.db.TableVersion(writeTable)] = len(s.batches)
	}
	s.wmu.Unlock()
	c.writeLat = append(c.writeLat, t1.Sub(t0))
	if err != nil {
		c.failed++
	}
	if s.traced {
		s.req++
		s.tr.record(s.req, 0, "store.bulk_insert", t0, t1, map[string]int64{"rows": int64(len(op.Write))})
	}
}

func (s *serveRun) ask(c *serveClient, op serveOp) {
	body, _ := json.Marshal(struct { // a struct of strings always marshals
		Question string `json:"question"`
		Session  string `json:"session,omitempty"`
	}{s.pools.Inputs[op.Input].Text, op.Session})
	req := httptest.NewRequest(http.MethodPost, "/api/ask", bytes.NewReader(body))
	w := httptest.NewRecorder()
	var ms0, ms1 runtime.MemStats
	if s.traced {
		runtime.ReadMemStats(&ms0)
	}
	v0 := s.env.db.TableVersion(writeTable)
	t0 := time.Now()
	s.env.srv.ServeHTTP(w, req)
	t1 := time.Now()
	v1 := s.env.db.TableVersion(writeTable)
	if s.traced {
		runtime.ReadMemStats(&ms1)
	}
	c.lat = append(c.lat, t1.Sub(t0))
	c.starts = append(c.starts, t0)
	c.asks++
	rec := opRecord{input: op.Input, v0: v0, v1: v1, status: w.Code}
	var resp askResponse
	if w.Code == http.StatusOK {
		var err error
		if resp, rec.got, err = decodeResponse(w.Body.Bytes()); err != nil {
			rec.status = -1
		}
	}
	c.ops = append(c.ops, rec)
	if !s.traced {
		return
	}
	s.allocs = append(s.allocs, float64(ms1.Mallocs-ms0.Mallocs))
	s.gcPause += time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	s.respSize = append(s.respSize, float64(w.Body.Len()))
	s.req++
	root := s.tr.record(s.req, 0, "serve.handler", t0, t1, map[string]int64{"status": int64(w.Code)})
	if w.Code != http.StatusOK {
		return
	}
	queue := time.Duration(resp.Timings.QueueUS) * time.Microsecond
	total := time.Duration(resp.Timings.TotalUS) * time.Microsecond
	s.tr.record(s.req, root, "serve.queue_wait", t0, t0.Add(queue), nil)
	askStart := t0.Add(queue)
	askID := s.tr.record(s.req, root, "core.ask", askStart, askStart.Add(total), nil)
	var sess *dialog.Session
	if op.Session != "" {
		if sess = s.sessions[op.Session]; sess == nil {
			sess = dialog.NewSession(s.env.eng.G, s.env.db.Schema, s.env.eng.Options().Weights)
			s.sessions[op.Session] = sess
		}
	}
	first := len(s.tr.spans) + 1
	replayStart := time.Now()
	out, err := s.rep.ask(s.tr, s.req, askID, s.pools.Inputs[op.Input].Text, sess, resp.Cached)
	s.tr.shift(first, askStart.Sub(replayStart))
	switch {
	case err != nil, out.refused:
		c.failed++
	case resp.Cached && !out.followUp:
	case out.sql != resp.SQL || out.rows != rec.got:
		c.failed++
	}
}

// checkOps compares every recorded answer with the oracle. Inputs that
// do not read writeTable have one verified result. For the others, the
// data is rebuilt version by version — a fresh copy of the dataset with
// the written batches replayed in publish order — and the oracle runs
// at every version an answer could have been read at; the answer must
// equal one of them.
func (s *serveRun) checkOps(want []serveWant, ops []opRecord) (failed, non200, tooBusy, oracleRuns int, err error) {
	versions := make([]uint64, 0, len(s.applied))
	for v := range s.applied {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	between := func(op opRecord) []uint64 {
		lo := sort.Search(len(versions), func(i int) bool { return versions[i] >= op.v0 })
		hi := sort.Search(len(versions), func(i int) bool { return versions[i] > op.v1 })
		return versions[lo:hi]
	}
	need := map[uint64]map[int]bool{}
	for _, op := range ops {
		if op.status == http.StatusOK && want[op.input].writes {
			for _, v := range between(op) {
				if need[v] == nil {
					need[v] = map[int]bool{}
				}
				need[v][op.input] = true
			}
		}
	}
	type key struct {
		input   int
		version uint64
	}
	oracle := map[key]digest{}
	db := dataset.University(serveScale)
	applied := 0
	for _, v := range versions {
		if len(need[v]) == 0 {
			continue
		}
		for ; applied < s.applied[v]; applied++ {
			if err := db.BulkInsert(writeTable, s.batches[applied]); err != nil {
				return 0, 0, 0, 0, fmt.Errorf("replaying write %d: %w", applied, err)
			}
		}
		sn := db.Snapshot()
		for input := range need[v] {
			res, err := exec.ReferenceQueryAt(sn, want[input].stmt)
			if err != nil {
				return 0, 0, 0, 0, fmt.Errorf("reference for %q: %w", s.pools.Inputs[input].Text, err)
			}
			oracle[key{input, v}] = digestResult(res)
		}
	}
	for _, op := range ops {
		w := want[op.input]
		switch {
		case op.status == http.StatusBadRequest && w.d == refused:
			continue
		case op.status != http.StatusOK:
			failed++
			non200++
			if op.status == http.StatusTooManyRequests {
				tooBusy++
			}
			continue
		case !w.writes:
			if op.got != w.d {
				failed++
			}
			continue
		}
		ok := false
		for _, v := range between(op) {
			ok = ok || op.got == oracle[key{op.input, v}]
		}
		if !ok {
			failed++
		}
	}
	return failed, non200, tooBusy, len(oracle), nil
}

func runServe(cfg config) (*report, error) {
	env, setups, err := setupRepeated(
		func(int) (*serveEnv, setupTimes, error) { env, st := setupServe(); return env, st, nil },
		(*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	data := readServeData(env.db.Snapshot())
	pools := serveInputs(cfg.seed, data)
	want, ver, err := verifyServe(env.db, &pools)
	if err != nil {
		return nil, err
	}
	rep := newRunReport(cfg, ver, len(pools.Inputs))

	s := &serveRun{
		env: env, pools: &pools, traced: cfg.traced,
		applied: map[uint64]int{env.db.TableVersion(writeTable): 0},
	}
	if cfg.traced {
		s.tr, s.rep, s.sessions = newTracer(), newReplayer(env.eng), map[string]*dialog.Session{}
	}
	clients := make([]*serveClient, serveClients)
	for i := range clients {
		clients[i] = &serveClient{stream: newServeStream(cfg.seed, i, &pools, data)}
	}
	before := readCounters([]*core.Engine{env.eng})
	start := time.Now()
	deadline := start.Add(cfg.window)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			s.loop(c, deadline)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	after := readCounters([]*core.Engine{env.eng})

	// One slice per second of the window, holding the asks of both
	// clients that started in it.
	slices := make([]slice, max(1, int(cfg.window/time.Second)))
	for i := range slices {
		slices[i].wall = time.Second
	}
	var writeLat []time.Duration
	var ops []opRecord
	asks, writes := 0, 0
	for _, c := range clients {
		for i, t := range c.starts {
			k := min(int(t.Sub(start)/time.Second), len(slices)-1)
			slices[k].lat = append(slices[k].lat, c.lat[i])
		}
		writeLat = append(writeLat, c.writeLat...)
		ops = append(ops, c.ops...)
		asks += c.asks
		writes += len(c.writeLat)
		rep.failed += c.failed
	}
	checkFailed, non200, tooBusy, oracleRuns, err := s.checkOps(want, ops)
	if err != nil {
		return nil, err
	}
	rep.failed += checkFailed
	rep.attempted = asks + writes
	rep.correct = rep.failed == 0 && len(ver.failures) == 0
	rep.notef("%d asks and %d write batches by %d clients; %d answers differ from the oracle or failed, %d non-200 (%d of them 429); %d oracle runs at written versions",
		asks, writes, serveClients, checkFailed, non200, tooBusy, oracleRuns)

	if cfg.traced {
		tracedMetrics(rep, traceSummary{
			tr: s.tr, root: "serve.handler", asks: asks, wall: wall,
			allocs: s.allocs, gcPause: s.gcPause, respSize: s.respSize,
			before: before, after: after,
		}, setups)
		return rep, dumpTrace(cfg, rep, s.tr)
	}
	latencyMetrics(rep, slices, "seconds of the window")
	rep.aside("write_p50_ms", percentile(writeLat, 0.5), "ms", len(writeLat))
	rep.set("setup_s", median(totals(setups)), len(setups))
	s, ops, clients = nil, nil, nil
	rows := rowsLoaded([]*core.Engine{env.eng})
	heap := liveHeap()
	runtime.KeepAlive(env)
	rep.set("heap_bytes_per_row", float64(heap)/float64(rows), rows)
	outcomeMetrics(rep, ver)
	return rep, nil
}
