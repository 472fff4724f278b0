package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/store"
)

// manifest is the part of BENCHMARK.json the benchmark's output must
// agree with.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// lastLine decodes the result object a report prints last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return r
}

func sameMetrics(t *testing.T, what string, got map[string]metricValue, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, s := range want {
		v, ok := got[s.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is in BENCHMARK.json but not printed", what, s.Name)
		case v.Unit != s.Unit:
			t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", what, s.Name, v.Unit, s.Unit)
		}
	}
}

func TestMetricsMatchManifest(t *testing.T) {
	m := readManifest(t)

	// End to end: the calls both run paths make, on empty observations.
	var buf bytes.Buffer
	rep := newReport(endToEnd)
	latencyMetrics(rep, []slice{{lat: []time.Duration{time.Millisecond}, wall: time.Second}}, "slices")
	rep.set("setup_s", 1, 1)
	rep.set("heap_bytes_per_row", 1, 1)
	outcomeMetrics(rep, verification{})
	if err := rep.print(&buf); err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, "end_to_end", lastLine(t, buf.String()).Metrics, m.EndToEnd)

	buf.Reset()
	rep = newReport(perLayer)
	tracedMetrics(rep, traceSummary{tr: newTracer()}, nil)
	if err := rep.print(&buf); err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, "per_layer", lastLine(t, buf.String()).Metrics, m.PerLayer)

	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	want := []string{"ask-cold", "ask-scaled", "ask-spilled", "serve-mixed"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the program runs %v", names, want)
	}
}

func TestUnsetMetricFailsTheReport(t *testing.T) {
	rep := newReport(endToEnd)
	rep.set("latency_p50_ms", 1, 1)
	if err := rep.print(&bytes.Buffer{}); err == nil {
		t.Fatal("a report with unmeasured metrics printed")
	}
}

// Digests agree with bench.SameResult: order-insensitive, duplicate-
// sensitive, and 1 equals 1.0 — the equality the oracle check uses —
// and an answer read back from the server's JSON digests like the
// rows it encoded.
func TestDigestAgreesWithSameResult(t *testing.T) {
	res := func(rows ...store.Row) *exec.Result { return &exec.Result{Cols: []string{"a", "b"}, Rows: rows} }
	a := res(store.Row{store.Int(1), store.Text("x")}, store.Row{store.Float(2.5), store.Null()})
	cases := []struct {
		name string
		b    *exec.Result
	}{
		{"reordered", res(store.Row{store.Float(2.5), store.Null()}, store.Row{store.Int(1), store.Text("x")})},
		{"int as float", res(store.Row{store.Float(1), store.Text("x")}, store.Row{store.Float(2.5), store.Null()})},
		{"duplicate row", res(store.Row{store.Int(1), store.Text("x")}, store.Row{store.Int(1), store.Text("x")})},
		{"other value", res(store.Row{store.Int(1), store.Text("y")}, store.Row{store.Float(2.5), store.Null()})},
		{"missing row", res(store.Row{store.Int(1), store.Text("x")})},
	}
	for _, c := range cases {
		if same, eq := bench.SameResult(a, c.b), digestResult(a) == digestResult(c.b); same != eq {
			t.Errorf("%s: SameResult %v but digests equal %v", c.name, same, eq)
		}
	}

	body := `{"columns":["a","b"],"rows":[[1,"x"],[2.5,null]]}`
	_, d, err := decodeResponse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if d != digestResult(a) {
		t.Error("decoded response digests differently from the rows it encodes")
	}
}

// A run is cut into whole passes over the inputs, each lasting from its
// first ask to the next pass's first; the tail of an unfinished pass is
// left out, and a run shorter than one pass is one slice.
func TestCyclesCutPasses(t *testing.T) {
	t0 := time.Unix(0, 0)
	run := &askRun{end: t0.Add(70 * time.Millisecond), wall: 70 * time.Millisecond}
	for i := 0; i < 7; i++ {
		run.lat = append(run.lat, time.Duration(i+1)*time.Millisecond)
		run.starts = append(run.starts, t0.Add(time.Duration(10*i)*time.Millisecond))
	}
	got := cycles(run, 3)
	if len(got) != 2 {
		t.Fatalf("%d slices of a 7-ask run over 3 inputs; want 2", len(got))
	}
	for k, s := range got {
		if len(s.lat) != 3 || s.lat[0] != time.Duration(3*k+1)*time.Millisecond || s.wall != 30*time.Millisecond {
			t.Errorf("slice %d: %v over %v; want asks %d..%d over 30ms", k, s.lat, s.wall, 3*k+1, 3*k+3)
		}
	}
	if whole := cycles(run, 8); len(whole) != 1 || len(whole[0].lat) != 7 || whole[0].wall != run.wall {
		t.Errorf("a run shorter than one pass gave %v; want one slice of the whole run", whole)
	}
	if last := cycles(run, 7); last[0].wall != 70*time.Millisecond {
		t.Errorf("the last pass lasts %v; want it to end with the window", last[0].wall)
	}
}
