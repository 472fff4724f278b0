package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(60)},    // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)},   // runs past the root
		{ID: 5, Parent: 2, Name: "a1", Start: ms(15), End: ms(25)},   // grandchild
		{ID: 6, Parent: 3, Name: "b1", Start: ms(50), End: ms(70)},   // clipped to b
		{ID: 7, Name: "other", Start: ms(200), End: ms(230)},         // another request's root
		{ID: 8, Parent: 7, Name: "o1", Start: ms(200), End: ms(230)}, // covers it whole
	}
	want := []time.Duration{
		ms(40), // 100 - |[10,60] u [90,100]|
		ms(20), // 30 - 10
		ms(20), // 30 - |[50,60]|
		ms(30),
		ms(10),
		ms(20),
		0,
		ms(30),
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, got[i], want[i])
		}
	}

	st := summarize(spans, "root")
	if st.rootTime != 100_000 {
		t.Errorf("root time %v us, want 100000", st.rootTime)
	}
	if st.selfSum["a"] != 20_000 {
		t.Errorf("self sum of a %v us, want 20000", st.selfSum["a"])
	}
}

func TestShiftLaysReplayOntoRoot(t *testing.T) {
	tr := newTracer()
	at := func(n int) time.Time { return tr.epoch.Add(time.Duration(n) * time.Millisecond) }
	root := tr.record(1, 0, "root", at(0), at(10), nil)
	first := len(tr.spans) + 1
	tr.record(1, root, "x", at(20), at(24), nil) // replayed after the root ended
	tr.record(1, root, "y", at(24), at(27), nil)
	tr.shift(first, -20*time.Millisecond)
	selfs := selfTimes(tr.spans)
	if selfs[0] != 3*time.Millisecond {
		t.Fatalf("root self %v after shift, want 3ms", selfs[0])
	}
	if tr.spans[1].Start != 0 || tr.spans[2].End != 7*time.Millisecond {
		t.Fatalf("shifted spans %+v", tr.spans[1:])
	}
}
