package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/exec"
	"repro/internal/store"
)

// metricSpec is one reported metric. The two lists below must name the
// same metrics, in the same units, as BENCHMARK.json;
// TestMetricsMatchManifest keeps them in step.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd metrics are what a user of the interface sees, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricSpec{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"setup_s", "s"},
	{"heap_bytes_per_row", "B/row"},
	{"ok_rate", "ratio"},
	{"gold_accuracy", "ratio"},
}

// timeLayers are the span names whose per-ask self time the traced run
// reports as <name>.self_us and whose share of traced ask time it
// reports as <name>.share, in pipeline order.
var timeLayers = []string{
	"strutil.tokenize",
	"semindex.correct",
	"grammar.prepare",
	"grammar.parse",
	"interp.rank",
	"iql.generate",
	"dialog.turn",
	"store.snapshot",
	"plan.compile",
	"plan.bind",
	"exec.run",
	"nlg.respond",
	"core.ask",
	"serve.handler",
	"serve.queue_wait",
}

// perLayer metrics come from the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	for _, l := range timeLayers {
		out = append(out, metricSpec{l + ".self_us", "us"})
	}
	for _, l := range timeLayers {
		out = append(out, metricSpec{l + ".share", "ratio"})
	}
	return append(out,
		metricSpec{"semindex.corrections", "count/ask"},
		metricSpec{"grammar.parse.allocs", "count"},
		metricSpec{"grammar.candidates", "count"},
		metricSpec{"interp.interpretations", "count"},
		metricSpec{"plan.vectorized_share", "ratio"},
		metricSpec{"exec.rows_out", "count"},
		metricSpec{"store.bulk_insert.self_us", "us"},
		metricSpec{"store.segments.skip_ratio", "ratio"},
		metricSpec{"store.segcache.hit_ratio", "ratio"},
		metricSpec{"store.segcache.fault_bytes_per_ask", "B/ask"},
		metricSpec{"store.segcache.evictions", "count/ask"},
		metricSpec{"core.answer_cache.hit_ratio", "ratio"},
		metricSpec{"core.plan_cache.hit_ratio", "ratio"},
		metricSpec{"serve.response_bytes", "B"},
		metricSpec{"setup.dataset_s", "s"},
		metricSpec{"setup.engine_s", "s"},
		metricSpec{"runtime.allocs_per_ask", "count"},
		metricSpec{"runtime.gc_pause_ms", "ms"},
		metricSpec{"trace.throughput_qps", "1/s"},
	)
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metric values and the sample count behind each, so
// the human-readable lines can state how many observations a figure
// rests on, plus notes printed ahead of them and the operation tally
// the result line carries.
type report struct {
	specs  []metricSpec
	values map[string]float64
	counts map[string]int
	notes  []string

	attempted, failed int
	correct           bool
}

func newReport(specs []metricSpec) *report {
	return &report{specs: specs, values: map[string]float64{}, counts: map[string]int{}}
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// aside notes a figure printed like a metric but not part of the
// result object.
func (r *report) aside(name string, v float64, unit string, n int) {
	r.notef("%-40s %16.6f %-9s n=%d", name, v, unit, n)
}

// print writes the notes, one line per metric, then the result object
// as the last line. A metric no code path set is a bug in the
// benchmark, not a measurement, so it fails the run.
func (r *report) print(w io.Writer) error {
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	var lines []string
	for _, s := range r.specs {
		v, ok := r.values[s.Name]
		if !ok {
			return fmt.Errorf("metric %s was never measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		lines = append(lines, fmt.Sprintf("%-40s %16.6f %-9s n=%d", s.Name, v, s.Unit, r.counts[s.Name]))
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for _, l := range append(r.notes, lines...) {
		fmt.Fprintln(w, l)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of ds in
// milliseconds. ds is sorted in place.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(math.Ceil(p*float64(len(ds)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(ds[k]) / float64(time.Millisecond)
}

// median of float samples (0 when empty); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// digest is an order-insensitive fingerprint of a result bag: the row
// count plus a sum of per-row hashes over store.Value keys, so two
// results with equal digests are equal as bags of rows under the same
// key equality bench.SameResult uses (NULL = NULL, 1 = 1.0). Holding a
// digest instead of the verified rows keeps the benchmark's own memory
// out of the heap-per-row figure.
type digest struct {
	Cols, Rows int
	Sum        uint64
}

// refused marks an input the interface declined to interpret: for a
// typo variant, a legitimate, deterministic outcome that must repeat on
// every ask.
var refused = digest{Cols: -1}

// unanswered is the expected outcome of an input that had to be
// answered but was refused at verification. No ask produces it, so
// every timed ask of such an input fails.
var unanswered = digest{Cols: -2}

func digestRows(cols int, rows []store.Row) digest {
	d := digest{Cols: cols, Rows: len(rows)}
	var buf []byte
	for _, r := range rows {
		buf = buf[:0]
		for _, v := range r {
			buf = append(v.AppendKey(buf), 0x1f)
		}
		h := fnv.New64a()
		_, _ = h.Write(buf) // hash.Hash writes never fail
		d.Sum += mix(h.Sum64())
	}
	return d
}

func digestResult(res *exec.Result) digest {
	if res == nil {
		return digest{}
	}
	return digestRows(len(res.Cols), res.Rows)
}

// mix is the splitmix64 finalizer: it spreads row hashes so the sum is
// not fooled by rows whose FNV hashes cancel.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}
