package store

import (
	"testing"

	"repro/internal/schema"
)

func statsFixture(t *testing.T) *Table {
	t.Helper()
	tab := NewTable(&schema.Table{
		Name: "m",
		Columns: []schema.Column{
			{Name: "id", Type: schema.Int},
			{Name: "v", Type: schema.Float},
		},
	})
	vals := []Value{Float(3), Float(1), Null(), Float(2), Float(2)}
	for i, v := range vals {
		if err := tab.Insert(Int(int64(i+1)), v); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestColStats(t *testing.T) {
	tab := statsFixture(t)
	s, ok := tab.Snap().Stats("v")
	if !ok {
		t.Fatal("no stats for v")
	}
	if s.Rows != 5 || s.Nulls != 1 || s.Distinct != 3 {
		t.Errorf("stats = %+v", s)
	}
	if f, _ := s.Min.AsFloat(); f != 1 {
		t.Errorf("min = %v", s.Min)
	}
	if f, _ := s.Max.AsFloat(); f != 3 {
		t.Errorf("max = %v", s.Max)
	}
	if _, ok := tab.Snap().Stats("nosuch"); ok {
		t.Error("stats for unknown column")
	}

	// Insert invalidates the cache.
	if err := tab.Insert(Int(6), Float(9)); err != nil {
		t.Fatal(err)
	}
	s, _ = tab.Snap().Stats("v")
	if s.Rows != 6 || s.Distinct != 4 {
		t.Errorf("stats not refreshed after insert: %+v", s)
	}
	if f, _ := s.Max.AsFloat(); f != 9 {
		t.Errorf("max not refreshed: %v", s.Max)
	}
}

func TestLookupRange(t *testing.T) {
	tab := statsFixture(t)
	if _, ok, _ := tab.Snap().LookupRange("v", nil, nil, false, false); ok {
		t.Fatal("range lookup without an ordered index")
	}
	if err := tab.BuildOrderedIndex("v"); err != nil {
		t.Fatal(err)
	}

	vOf := func(ids []int) []float64 {
		out := make([]float64, len(ids))
		for i, id := range ids {
			out[i], _ = tab.Row(id)[1].AsFloat()
		}
		return out
	}
	check := func(name string, ids []int, want ...float64) {
		t.Helper()
		got := vOf(ids)
		if len(got) != len(want) {
			t.Fatalf("%s: got %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: got %v, want %v", name, got, want)
			}
		}
	}

	lo, hi := Float(2), Float(3)
	ids, _, _ := tab.Snap().LookupRange("v", &lo, &hi, true, true)
	check("[2,3]", ids, 2, 2, 3)
	ids, _, _ = tab.Snap().LookupRange("v", &lo, &hi, false, true)
	check("(2,3]", ids, 3)
	ids, _, _ = tab.Snap().LookupRange("v", &lo, &hi, true, false)
	check("[2,3)", ids, 2, 2)
	ids, _, _ = tab.Snap().LookupRange("v", nil, &lo, false, false)
	check("(-inf,2): NULL excluded", ids, 1)
	ids, _, _ = tab.Snap().LookupRange("v", nil, nil, false, false)
	check("unbounded skips NULLs", ids, 1, 2, 2, 3)

	// Ordered index is maintained across inserts.
	if err := tab.Insert(Int(6), Float(1.5)); err != nil {
		t.Fatal(err)
	}
	ids, _, _ = tab.Snap().LookupRange("v", nil, nil, false, false)
	check("after insert", ids, 1, 1.5, 2, 2, 3)
}
