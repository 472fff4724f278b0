package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/store"
)

// eventsRows sizes the ask-spilled event log: sixteen sealed 64K-row
// segments, eight times the segment cache.
const eventsRows = 1 << 20

// askEnv is the system under test of an in-process workload: one engine
// per dataset, answer cache off, every other option at its default.
type askEnv struct {
	engines map[string]*core.Engine
	budget  int64  // segment-cache budget in bytes; 0 when fully in memory
	spill   string // spill directory, removed by close
}

func (env *askEnv) close() {
	if env.spill != "" {
		os.RemoveAll(env.spill)
	}
}

func (env *askEnv) list() []*core.Engine {
	out := make([]*core.Engine, 0, len(env.engines))
	for _, e := range env.engines {
		out = append(out, e)
	}
	return out
}

// setupTimes is one set-up, in seconds: dataset constructors, engine
// construction, and the whole set-up including segment spill.
type setupTimes struct {
	dataset, engine, total float64
}

type datasetSpec struct {
	name  string
	scale int
}

func askDatasets(workload string) []datasetSpec {
	switch workload {
	case "ask-cold":
		return []datasetSpec{{"university", 1}, {"geo", 1}, {"sales", 1}}
	case "ask-scaled":
		return []datasetSpec{{"university", 200}, {"sales", 1000}}
	case "ask-spilled":
		return []datasetSpec{{"events", 0}}
	}
	return nil
}

// setupAsk builds the datasets and engines of an in-process workload.
// On ask-spilled the spill directory lives under scratch, and the cache
// budget is an eighth of the sealed segment bytes.
func setupAsk(workload, scratch string, k int) (*askEnv, setupTimes, error) {
	var st setupTimes
	env := &askEnv{engines: map[string]*core.Engine{}}
	start := time.Now()
	for _, ds := range askDatasets(workload) {
		opts := core.DefaultOptions()
		opts.AnswerCacheSize = 0
		t0 := time.Now()
		var db *store.DB
		if ds.name == "events" {
			db = dataset.Events(eventsRows)
		} else {
			var err error
			if db, err = dataset.ByName(ds.name, ds.scale); err != nil {
				return nil, st, err
			}
		}
		st.dataset += time.Since(t0).Seconds()
		if ds.name == "events" {
			env.budget = int64(db.Table("events").Snap().Segments().Bytes()) / 8
			env.spill = filepath.Join(scratch, fmt.Sprintf("spill-%d-%d", os.Getpid(), k))
			opts.SpillDir, opts.SegCacheBytes = env.spill, env.budget
		}
		t0 = time.Now()
		e := core.NewEngine(db, opts)
		st.engine += time.Since(t0).Seconds()
		if ds.name == "events" {
			_ = db.Table("events").Snap().Segments() // adopt: spill every sealed segment
			if sc := db.SegCache().Stats(); sc.SpillErrs > 0 {
				return nil, st, fmt.Errorf("ask-spilled: %d segments failed to spill", sc.SpillErrs)
			}
		}
		env.engines[ds.name] = e
	}
	st.total = time.Since(start).Seconds()
	return env, st, nil
}

// verification is the checked outcome of every distinct input.
type verification struct {
	want     []digest // per input: the reference result, refused, or unanswered
	goldN    int      // inputs with gold SQL
	goldOK   int      // ... whose answer execution-matches it
	typosOff int      // typo variants refused: gold misses, not failures
	failures []string // inputs answered unlike the reference, or wrongly refused
}

// outcome reduces one ask to what the check compares: the result
// digest, refused when the interface found no interpretation of the
// question, or an error for anything else (a failed SQL generation
// included).
func outcome(ans *core.Answer, err error) (digest, error) {
	if err != nil {
		if ans != nil && ans.Query == nil {
			return refused, nil
		}
		return digest{}, err
	}
	return digestResult(ans.Result), nil
}

// answered is one distinct input as the engine answered it, with the
// snapshot the oracle must read.
type answered struct {
	in  askInput
	sn  *store.Snapshot
	ans *core.Answer
	err error
}

// verify checks every answer against exec.ReferenceQueryAt, the
// pre-planner oracle: an answered question must bag-equal the oracle's
// result for its SQL on the same snapshot (bench.SameResult), and the
// oracle's result is what every timed ask of it must return. A refused
// typo variant is recorded as the expected outcome; any other refused
// input is a failure, expected as unanswered. Gold-corpus inputs are
// also scored against their gold SQL, executed by the planner as the
// accuracy tables score them. Each distinct statement runs once, and
// the runs are spread over one worker per CPU.
func verify(answers []answered) (verification, error) {
	out := verification{want: make([]digest, len(answers))}
	type job struct {
		sn     *store.Snapshot
		stmt   *sql.SelectStmt
		oracle bool
		res    *exec.Result
		err    error
	}
	var jobs []*job
	byKey := map[string]*job{}
	add := func(key string, j *job) *job {
		if old := byKey[key]; old != nil {
			return old
		}
		byKey[key] = j
		jobs = append(jobs, j)
		return j
	}
	refs := make([]*job, len(answers))
	golds := make([]*job, len(answers))
	for i, a := range answers {
		d, err := outcome(a.ans, a.err)
		if err != nil {
			return out, fmt.Errorf("verifying %q: %w", a.in.Text, err)
		}
		out.want[i] = d
		if d == refused {
			if a.in.Typo {
				out.typosOff++
			} else {
				out.failures = append(out.failures, "refused: "+a.in.Text)
				out.want[i] = unanswered
			}
			continue
		}
		refs[i] = add("ref\x00"+a.in.Domain+"\x00"+a.ans.SQL.String(), &job{sn: a.sn, stmt: a.ans.SQL, oracle: true})
		if a.in.Gold != "" {
			stmt, err := sql.Parse(a.in.Gold)
			if err != nil {
				return out, fmt.Errorf("gold SQL %q: %w", a.in.Gold, err)
			}
			golds[i] = add("gold\x00"+a.in.Domain+"\x00"+a.in.Gold, &job{sn: a.sn, stmt: stmt})
		}
	}
	next := make(chan *job)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				if j.oracle {
					j.res, j.err = exec.ReferenceQueryAt(j.sn, j.stmt)
				} else {
					j.res, j.err = exec.QueryAt(j.sn, j.stmt)
				}
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	for i, a := range answers {
		if a.in.Gold != "" {
			out.goldN++
		}
		if refs[i] == nil {
			continue
		}
		if j := refs[i]; j.err != nil {
			return out, fmt.Errorf("reference for %q: %w", a.in.Text, j.err)
		} else if !bench.SameResult(a.ans.Result, j.res) {
			out.failures = append(out.failures, "differs from the reference: "+a.in.Text)
			out.want[i] = digestResult(j.res)
		}
		if j := golds[i]; j != nil {
			if j.err != nil {
				return out, fmt.Errorf("gold SQL %q: %w", a.in.Gold, j.err)
			}
			if bench.SameResult(a.ans.Result, j.res) {
				out.goldOK++
			}
		}
	}
	return out, nil
}

func verifyAsk(env *askEnv, inputs []askInput) (verification, error) {
	snaps := map[string]*store.Snapshot{}
	for d, e := range env.engines {
		snaps[d] = e.DB.Snapshot()
	}
	answers := make([]answered, len(inputs))
	for i, in := range inputs {
		ans, err := env.engines[in.Domain].Ask(in.Text)
		answers[i] = answered{in: in, sn: snaps[in.Domain], ans: ans, err: err}
	}
	return verify(answers)
}

// askRun is what one timed window of an in-process workload observed.
type askRun struct {
	lat      []time.Duration
	starts   []time.Time // of each ask
	end      time.Time   // of the window, after the last ask's check
	wall     time.Duration
	asks     int
	failed   int
	before   counters
	after    counters
	tr       *tracer
	allocs   []float64
	gcPause  time.Duration
	segcache store.SegCacheStats // summed per-ask deltas (traced run)
}

// counters are the engines' cumulative cache and scan counters.
type counters struct {
	ansHits, ansMisses, planHits, planMisses uint64
	segScanned, segSkipped                   int64
}

func readCounters(engines []*core.Engine) counters {
	var c counters
	for _, e := range engines {
		h, m := e.AnswerCacheStats()
		c.ansHits, c.ansMisses = c.ansHits+h, c.ansMisses+m
		h, m = e.PlanCacheStats()
		c.planHits, c.planMisses = c.planHits+h, c.planMisses+m
		sc, sk := e.SegmentStats()
		c.segScanned, c.segSkipped = c.segScanned+sc, c.segSkipped+sk
	}
	return c
}

// runAskWindow drives one closed-loop client over the seeded sequence
// for d. Untraced, only the Ask call is timed. Traced, each Ask is the
// root span of its request and is followed by the pipeline replay,
// whose SQL and rows must equal the root call's.
func runAskWindow(env *askEnv, inputs []askInput, want []digest, seed int64, d time.Duration, traced bool) *askRun {
	run := &askRun{}
	var reps map[string]*replayer
	if traced {
		run.tr = newTracer()
		reps = map[string]*replayer{}
		for name, e := range env.engines {
			reps[name] = newReplayer(e)
		}
	}
	seq := newSequence(seed, len(inputs))
	engines := env.list()
	run.before = readCounters(engines)
	start := time.Now()
	deadline := start.Add(d)
	var ms0, ms1 runtime.MemStats
	for req := 1; time.Now().Before(deadline); req++ {
		i := seq.next()
		in := inputs[i]
		e := env.engines[in.Domain]
		var sc0 store.SegCacheStats
		if traced {
			if c := e.DB.SegCache(); c != nil {
				sc0 = c.Stats()
			}
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		ans, err := e.Ask(in.Text)
		t1 := time.Now()
		if traced {
			// Read before checking the answer, whose digest allocates.
			runtime.ReadMemStats(&ms1)
			run.allocs = append(run.allocs, float64(ms1.Mallocs-ms0.Mallocs))
			run.gcPause += time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
			if c := e.DB.SegCache(); c != nil {
				sc1 := c.Stats()
				run.segcache.Hits += sc1.Hits - sc0.Hits
				run.segcache.Misses += sc1.Misses - sc0.Misses
				run.segcache.FaultBytes += sc1.FaultBytes - sc0.FaultBytes
				run.segcache.Evictions += sc1.Evictions - sc0.Evictions
			}
		}
		run.lat = append(run.lat, t1.Sub(t0))
		run.starts = append(run.starts, t0)
		run.asks++
		got, err := outcome(ans, err)
		ok := err == nil && got == want[i]
		if !traced {
			if !ok {
				run.failed++
			}
			continue
		}
		root := run.tr.record(req, 0, "core.ask", t0, t1, nil)
		first := len(run.tr.spans) + 1
		replayStart := time.Now()
		out, rerr := reps[in.Domain].ask(run.tr, req, root, in.Text, nil, false)
		run.tr.shift(first, t0.Sub(replayStart))
		if !ok || rerr != nil || !sameAsRoot(out, ans, got) {
			run.failed++
		}
	}
	run.end = time.Now()
	run.wall = run.end.Sub(start)
	run.after = readCounters(engines)
	return run
}

// cycles cuts a run into its passes over the n distinct inputs, each
// of which asks every input once, so every slice holds the same mix. A
// pass lasts from its first ask to the next pass's first. A run shorter
// than one pass is one slice.
func cycles(run *askRun, n int) []slice {
	k := len(run.lat) / n
	if k == 0 {
		return []slice{{lat: run.lat, wall: run.wall}}
	}
	out := make([]slice, k)
	for c := range out {
		next := run.end
		if (c+1)*n < len(run.starts) {
			next = run.starts[(c+1)*n]
		}
		out[c] = slice{lat: run.lat[c*n : (c+1)*n], wall: next.Sub(run.starts[c*n])}
	}
	return out
}

// sameAsRoot reports whether the replay reproduced the root call: the
// same refusal, or the same SQL text and result rows.
func sameAsRoot(out replayOut, ans *core.Answer, got digest) bool {
	if got == refused || out.refused {
		return got == refused && out.refused
	}
	return ans != nil && ans.SQL != nil && out.sql == ans.SQL.String() && out.rows == got
}

// rowsLoaded counts the rows of every table the engines hold.
func rowsLoaded(engines []*core.Engine) int {
	n := 0
	for _, e := range engines {
		sn := e.DB.Snapshot()
		for _, t := range e.DB.Schema.Tables {
			n += sn.Table(t.Name).Len()
		}
	}
	return n
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
