package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span that caused it (0 for a request's root).
// Start and End are offsets from the tracer's epoch.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Req    int              `json:"req"`
	Name   string           `json:"name"`
	Start  time.Duration    `json:"start_ns"`
	End    time.Duration    `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span in memory; they are written out once the run
// has ended so that writing never lands inside a timed call.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record appends a finished span and returns its ID.
func (t *tracer) record(req, parent int, name string, start, end time.Time, counts map[string]int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Counts: counts,
	})
	return id
}

// shift moves spans with ID >= from by d. The pipeline replay runs
// after the root call it mirrors; shifting lays its spans onto the
// root's own interval, in core's order, so that child coverage and
// self time are read off one timeline.
func (t *tracer) shift(from int, d time.Duration) {
	for i := from - 1; i < len(t.spans); i++ {
		t.spans[i].Start += d
		t.spans[i].End += d
	}
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover, indexed like t.spans.
func selfTimes(spans []span) []time.Duration {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, spans, children[s.ID])
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			if v.hi > cur.hi {
				cur.hi = v.hi
			}
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats summarizes the spans of one traced run: per-name self-time
// samples, and the total duration of the request roots that make up
// "traced ask time" for shares.
type layerStats struct {
	self     map[string][]float64 // microseconds
	selfSum  map[string]float64
	rootTime float64 // microseconds, summed over ask roots
}

// followUpTurns collects the self times of dialogue turns that resolved
// as follow-ups, the turns only the dialogue layer can answer.
const followUpTurns = "dialog.turn/follow_up"

func summarize(spans []span, rootName string) layerStats {
	st := layerStats{self: map[string][]float64{}, selfSum: map[string]float64{}}
	selfs := selfTimes(spans)
	for i, s := range spans {
		us := float64(selfs[i]) / float64(time.Microsecond)
		st.self[s.Name] = append(st.self[s.Name], us)
		if s.Name == "dialog.turn" && s.Counts["follow_up"] == 1 {
			st.self[followUpTurns] = append(st.self[followUpTurns], us)
		}
		st.selfSum[s.Name] += us
		if s.Name == rootName && s.Parent == 0 {
			st.rootTime += float64(s.dur()) / float64(time.Microsecond)
		}
	}
	return st
}
