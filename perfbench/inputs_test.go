package main

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
)

func TestInputsDeterministicPerSeed(t *testing.T) {
	// A workload's inputs are its distinct questions plus the order the
	// closed loop asks them in.
	type generated struct {
		Inputs []askInput
		Order  []int
	}
	ask := func(w string) func(int64) generated {
		return func(s int64) generated {
			in := askInputs(config{workload: w, seed: s})
			seq := newSequence(s, len(in))
			g := generated{Inputs: in}
			for i := 0; i < 3*len(in); i++ {
				g.Order = append(g.Order, seq.next())
			}
			return g
		}
	}
	gens := map[string]func(seed int64) generated{
		"ask-cold":    ask("ask-cold"),
		"ask-scaled":  ask("ask-scaled"),
		"ask-spilled": ask("ask-spilled"),
	}
	data := readServeData(dataset.University(serveScale).Snapshot())
	gens["serve-mixed"] = func(s int64) generated { return generated{Inputs: serveInputs(s, data).Inputs} }
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if len(a.Inputs) == 0 {
			t.Errorf("%s: no inputs", name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", name)
		}
	}

	seqA, seqB := newSequence(3, 50), newSequence(3, 50)
	seen := map[int]int{}
	for i := 0; i < 500; i++ {
		x, y := seqA.next(), seqB.next()
		if x != y {
			t.Fatalf("sequence step %d: %d vs %d", i, x, y)
		}
		seen[x]++
	}
	for i := 0; i < 50; i++ {
		if seen[i] != 10 {
			t.Fatalf("input %d replayed %d times in 10 cycles", i, seen[i])
		}
	}

	pools := serveInputs(7, data)
	sa, sb := newServeStream(7, 0, &pools, data), newServeStream(7, 0, &pools, data)
	other := newServeStream(7, 1, &pools, data)
	differ := false
	for i := 0; i < 1000; i++ {
		x, y, z := sa.next(), sb.next(), other.next()
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("serve stream step %d: %+v vs %+v", i, x, y)
		}
		differ = differ || !reflect.DeepEqual(x, z)
	}
	if !differ {
		t.Fatal("both serve-mixed clients replay the same stream")
	}
}

// The serve-mixed stream keeps its fixed mix: every kind of operation
// occurs, and writes only name existing students and courses.
func TestServeStreamMix(t *testing.T) {
	data := readServeData(dataset.University(serveScale).Snapshot())
	pools := serveInputs(1, data)
	s := newServeStream(1, 0, &pools, data)
	kinds := map[string]int{}
	for i := 0; i < 4000; i++ {
		op := s.next()
		switch {
		case op.Write != nil:
			kinds["write"]++
			for _, r := range op.Write {
				if sid := r[0].Int64(); sid < 1 || sid > int64(data.Students) {
					t.Fatalf("write names student %d", sid)
				}
				if cid := r[1].Int64(); cid < 1 || cid > int64(data.Courses) {
					t.Fatalf("write names course %d", cid)
				}
			}
		case op.Session != "":
			kinds["dialogue"]++
		case pools.Inputs[op.Input].Gold != "":
			kinds["gold"]++
		default:
			kinds["prepared"]++
		}
	}
	for _, k := range []string{"write", "dialogue", "gold", "prepared"} {
		if kinds[k] == 0 {
			t.Errorf("no %s operations in 4000", k)
		}
	}
}
