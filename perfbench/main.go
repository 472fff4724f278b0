// Command perfbench is the repository's benchmark: it builds a
// workload's datasets and engine from a seed, verifies every distinct
// input against the reference executor, drives the interface for a
// fixed number of seconds, and prints each metric by name, unit and
// sample count, ending with one JSON line.
//
//	perfbench --workload ask-cold --seed 1 --seconds 10 --trace 0
//
// Workloads (BENCHMARK.json records why each exists):
//
//	ask-cold     gold corpora at scale 1: the parse dominates
//	ask-scaled   university x200 and sales x1000: execution dominates
//	ask-spilled  1M-row event log over an eighth-size segment cache
//	serve-mixed  ServeHTTP with caches, sessions, binds and writes
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it replays every ask through the layers' public calls and reports
// per-layer metrics, writing the spans under .bench_build.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/store"
)

// A run builds its system at least minSetups times, and keeps building
// until minSetupTime has been spent (at most maxSetups times); setup_s
// is the median, so neither one slow build nor the timer resolution of
// a millisecond-scale set-up moves it.
const (
	minSetups    = 3
	maxSetups    = 100
	minSetupTime = time.Second
)

// setupRepeated builds the system repeatedly, discarding every build
// but the last, and returns the last with the times of all of them.
func setupRepeated[T any](build func(k int) (T, setupTimes, error), discard func(T) error) (T, []setupTimes, error) {
	var sys T
	var times []setupTimes
	var spent float64
	for k := 0; k < maxSetups && (k < minSetups || spent < minSetupTime.Seconds()); k++ {
		if k > 0 {
			if err := discard(sys); err != nil {
				return sys, nil, err
			}
			runtime.GC()
		}
		s, st, err := build(k)
		if err != nil {
			return sys, nil, err
		}
		sys, times, spent = s, append(times, st), spent+st.total
	}
	return sys, times, nil
}

type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	scratch  string // spill files and trace output
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "ask-cold, ask-scaled, ask-spilled or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 replays every ask through the layers and reports per-layer metrics")
	flag.Parse()
	cfg.window = time.Duration(seconds) * time.Second
	cfg.traced = trace == 1
	cfg.scratch = ".bench_build" // run from the checkout root, like run.sh
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := run(cfg)
	if err == nil {
		err = rep.print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) (*report, error) {
	var rep *report
	var err error
	switch cfg.workload {
	case "ask-cold", "ask-scaled", "ask-spilled":
		rep, err = runAsk(cfg)
	case "serve-mixed":
		rep, err = runServe(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	rep.notes = append([]string{fmt.Sprintf("workload %s seed %d window %s trace %v GOMAXPROCS %d",
		cfg.workload, cfg.seed, cfg.window, cfg.traced, runtime.GOMAXPROCS(0))}, rep.notes...)
	return rep, nil
}

// newRunReport starts the report of a run: the per-layer metrics when
// traced, the end-to-end ones otherwise.
func newRunReport(cfg config, ver verification, inputs int) *report {
	specs := endToEnd
	if cfg.traced {
		specs = perLayer
	}
	rep := newReport(specs)
	rep.notef("verified %d distinct inputs against the reference executor: %d failed; %d typo variants refused; gold SQL matched %d of %d",
		inputs, len(ver.failures), ver.typosOff, ver.goldOK, ver.goldN)
	for _, f := range ver.failures {
		rep.notef("  %s", f)
	}
	return rep
}

func askInputs(cfg config) []askInput {
	switch cfg.workload {
	case "ask-cold":
		return goldInputs(cfg.seed, []string{"university", "geo", "sales"}, true)
	case "ask-scaled":
		// No typo variants: spelling correction is measured on
		// ask-cold, and a typo that turns a heavy question into a
		// refusal would change this workload's mix from seed to seed.
		return goldInputs(cfg.seed, []string{"university", "sales"}, false)
	}
	return spilledInputs(cfg.seed, eventsRows)
}

func runAsk(cfg config) (*report, error) {
	env, setups, err := setupRepeated(
		func(k int) (*askEnv, setupTimes, error) { return setupAsk(cfg.workload, cfg.scratch, k) },
		func(env *askEnv) error { env.close(); return nil })
	if err != nil {
		return nil, err
	}
	defer env.close()

	inputs := askInputs(cfg)
	ver, err := verifyAsk(env, inputs)
	if err != nil {
		return nil, err
	}
	rep := newRunReport(cfg, ver, len(inputs))
	run := runAskWindow(env, inputs, ver.want, cfg.seed, cfg.window, cfg.traced)
	rep.attempted, rep.failed = run.asks, run.failed
	rep.correct = run.failed == 0 && len(ver.failures) == 0
	if cfg.traced {
		tracedMetrics(rep, traceSummary{
			tr: run.tr, root: "core.ask", asks: run.asks, wall: run.wall,
			allocs: run.allocs, gcPause: run.gcPause, segcache: run.segcache,
			before: run.before, after: run.after,
		}, setups)
		return rep, dumpTrace(cfg, rep, run.tr)
	}
	latencyMetrics(rep, cycles(run, len(inputs)), "passes over the inputs")
	rep.set("setup_s", median(totals(setups)), len(setups))
	run = nil
	engines := env.list()
	rows := rowsLoaded(engines)
	heap := liveHeap()
	runtime.KeepAlive(env)
	rep.set("heap_bytes_per_row", float64(heap)/float64(rows), rows)
	if env.budget > 0 {
		rep.notef("heap %d bytes live beside a segment cache budget of %d bytes", heap, env.budget)
	}
	outcomeMetrics(rep, ver)
	return rep, nil
}

// slice is a stretch of the measured window: the latencies of the asks
// it holds and its wall time.
type slice struct {
	lat  []time.Duration
	wall time.Duration
}

// latencyMetrics reports the ask latency distribution and throughput as
// medians over slices of the window. Each slice gives its p50, its p90
// and its asks per second of wall time, in which the clients also check
// each answer and, in serve-mixed, publish writes. A host that stalls
// the benchmark for a stretch slows the slices in it, and the median
// sets them aside while they are fewer than half. latency_p99_ms, a
// printed aside, pools every ask.
func latencyMetrics(rep *report, slices []slice, what string) {
	var p50, p90, qps []float64
	var all []time.Duration
	for _, s := range slices {
		all = append(all, s.lat...)
		p50 = append(p50, percentile(s.lat, 0.50))
		p90 = append(p90, percentile(s.lat, 0.90))
		qps = append(qps, ratio(float64(len(s.lat)), s.wall.Seconds()))
	}
	n := len(all)
	rep.notef("latency and throughput: medians over %d %s", len(slices), what)
	rep.set("latency_p50_ms", median(p50), n)
	rep.set("latency_p90_ms", median(p90), n)
	if n >= 1000 {
		rep.aside("latency_p99_ms", percentile(all, 0.99), "ms", n)
	} else {
		rep.notef("%-40s %16s %-9s n=%d (needs 1000 asks)", "latency_p99_ms", "-", "ms", n)
	}
	rep.set("throughput_qps", median(qps), n)
}

// outcomeMetrics reports the answer checks: ok_rate is one minus the
// error rate over every timed operation, gold_accuracy the share of
// gold-corpus inputs whose answer execution-matches the gold SQL.
func outcomeMetrics(rep *report, ver verification) {
	errRate := ratio(float64(rep.failed), float64(rep.attempted))
	rep.aside("error_rate", errRate, "ratio", rep.attempted)
	rep.set("ok_rate", 1-errRate, rep.attempted)
	rep.set("gold_accuracy", ratio(float64(ver.goldOK), float64(ver.goldN)), ver.goldN)
}

func totals(s []setupTimes) []float64 {
	out := make([]float64, len(s))
	for i, t := range s {
		out[i] = t.total
	}
	return out
}

// traceSummary is what a traced run hands to the per-layer report.
type traceSummary struct {
	tr       *tracer
	root     string // name of the request root span asks are timed by
	asks     int
	wall     time.Duration
	allocs   []float64
	gcPause  time.Duration
	segcache store.SegCacheStats
	before   counters
	after    counters
	respSize []float64
}

// tracedMetrics derives every per-layer metric from the spans and the
// counters read around the root calls. Times are per-ask medians of
// self time over the spans of that name; shares divide a layer's summed
// self time by the summed duration of the request roots.
func tracedMetrics(rep *report, ts traceSummary, setups []setupTimes) {
	st := summarize(ts.tr.spans, ts.root)
	for _, l := range timeLayers {
		self := st.self[l]
		if l == "dialog.turn" {
			self = st.self[followUpTurns]
		}
		rep.set(l+".self_us", median(self), len(self))
		rep.set(l+".share", ratio(st.selfSum[l], st.rootTime), len(st.self[l]))
	}
	counts := func(name, key string) []float64 {
		var out []float64
		for _, s := range ts.tr.spans {
			if s.Name == name {
				out = append(out, float64(s.Counts[key]))
			}
		}
		return out
	}
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t
	}
	fixes := counts("semindex.correct", "corrections")
	rep.set("semindex.corrections", ratio(sum(fixes), float64(len(fixes))), len(fixes))
	allocs := counts("grammar.parse", "allocs")
	rep.set("grammar.parse.allocs", median(allocs), len(allocs))
	cands := counts("grammar.parse", "candidates")
	rep.set("grammar.candidates", median(cands), len(cands))
	interps := append(counts("interp.rank", "interpretations"), counts("dialog.turn", "interpretations")...)
	rep.set("interp.interpretations", median(interps), len(interps))
	vec := append(counts("plan.compile", "vec"), counts("plan.bind", "vec")...)
	rep.set("plan.vectorized_share", ratio(sum(vec), float64(len(vec))), len(vec))
	rowsOut := counts("exec.run", "rows_out")
	rep.set("exec.rows_out", median(rowsOut), len(rowsOut))
	rep.set("store.bulk_insert.self_us", median(st.self["store.bulk_insert"]), len(st.self["store.bulk_insert"]))

	b, a := ts.before, ts.after
	scanned, skipped := a.segScanned-b.segScanned, a.segSkipped-b.segSkipped
	rep.set("store.segments.skip_ratio", ratio(float64(skipped), float64(scanned+skipped)), int(scanned+skipped))
	sc := ts.segcache
	rep.set("store.segcache.hit_ratio", ratio(float64(sc.Hits), float64(sc.Hits+sc.Misses)), int(sc.Hits+sc.Misses))
	rep.set("store.segcache.fault_bytes_per_ask", ratio(float64(sc.FaultBytes), float64(ts.asks)), ts.asks)
	rep.set("store.segcache.evictions", ratio(float64(sc.Evictions), float64(ts.asks)), ts.asks)
	ah, am := a.ansHits-b.ansHits, a.ansMisses-b.ansMisses
	rep.set("core.answer_cache.hit_ratio", ratio(float64(ah), float64(ah+am)), int(ah+am))
	ph, pm := a.planHits-b.planHits, a.planMisses-b.planMisses
	rep.set("core.plan_cache.hit_ratio", ratio(float64(ph), float64(ph+pm)), int(ph+pm))
	rep.set("serve.response_bytes", median(ts.respSize), len(ts.respSize))

	var ds, es []float64
	for _, s := range setups {
		ds, es = append(ds, s.dataset), append(es, s.engine)
	}
	rep.set("setup.dataset_s", median(ds), len(ds))
	rep.set("setup.engine_s", median(es), len(es))
	rep.set("runtime.allocs_per_ask", median(ts.allocs), len(ts.allocs))
	rep.set("runtime.gc_pause_ms", ratio(float64(ts.gcPause)/float64(time.Millisecond), float64(ts.asks)), ts.asks)
	rep.set("trace.throughput_qps", ratio(float64(ts.asks), ts.wall.Seconds()), ts.asks)
}

func dumpTrace(cfg config, rep *report, tr *tracer) error {
	path := filepath.Join(cfg.scratch, "trace-"+cfg.workload+".jsonl")
	if err := tr.dump(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.notef("%d spans written to %s", len(tr.spans), path)
	return nil
}
