package store

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/schema"
)

// The reference oracle reads its rows back out of the segments, so it
// cannot catch a fault in the segment write path (tail append,
// sealing, re-sealing, repartitioning, spill and fault-in).
// TestRowsRoundTripProperty checks that path against the rows as the
// test inserted them: over random row sets full of encoding edge
// cases, Rows() must return exactly those rows.

func propSchema() *schema.Schema {
	return schema.MustNew("prop", []*schema.Table{{
		Name: "p",
		Columns: []schema.Column{
			{Name: "i", Type: schema.Int},
			{Name: "f", Type: schema.Float},
			{Name: "s", Type: schema.Text},
			{Name: "b", Type: schema.Bool},
			{Name: "k", Type: schema.Int}, // low-cardinality: RLE/FOR/dict-friendly
		},
	}}, nil)
}

// propRow draws one row of edge-case cells: NULLs in every column,
// int64 extremes, NaN and ±Inf, -0, empty strings, and INT values in
// the FLOAT column (which the store widens).
func propRow(r *rand.Rand, i int) Row {
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, int64(i), 1 << 40}
	floats := []Value{Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(1)),
		Float(math.Inf(-1)), Float(1.5), Int(7), Int(math.MaxInt64), Float(float64(i) / 3)}
	strs := []string{"", "a", "b", " ", "long value with spaces", fmt.Sprintf("v%d", i%5)}
	row := Row{
		Int(ints[r.Intn(len(ints))]),
		floats[r.Intn(len(floats))],
		Text(strs[r.Intn(len(strs))]),
		Bool(r.Intn(2) == 0),
		Int(int64(i / 9)),
	}
	for c := range row {
		if r.Intn(6) == 0 {
			row[c] = Null()
		}
	}
	return row
}

// stored is a row as the store keeps it: INT cells of FLOAT columns
// widened.
func stored(meta *schema.Table, row Row) Row {
	out := make(Row, len(row))
	for c, v := range row {
		out[c] = widen(v, KindOfColType(meta.Columns[c].Type))
	}
	return out
}

// sameCell is exact cell equality: same kind, and floats equal bit for
// bit (so NaN, -0 and ±Inf must survive unchanged).
func sameCell(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case KindInt:
		return a.Int64() == b.Int64()
	case KindFloat:
		return math.Float64bits(a.f) == math.Float64bits(b.f)
	case KindText:
		return a.Str() == b.Str()
	case KindBool:
		return a.BoolVal() == b.BoolVal()
	}
	return true
}

func checkRows(t *testing.T, ctx string, s *TableSnap, want []Row) {
	t.Helper()
	if s.Len() != len(want) || s.Segments().N != len(want) {
		t.Fatalf("%s: Len %d, segments %d, want %d", ctx, s.Len(), s.Segments().N, len(want))
	}
	got := s.Rows()
	for i := range want {
		for c := range want[i] {
			if !sameCell(got[i][c], want[i][c]) {
				t.Fatalf("%s: row %d col %d = %v (%v), want %v (%v)",
					ctx, i, c, got[i][c], got[i][c].Kind(), want[i][c], want[i][c].Kind())
			}
		}
	}
	if len(want) > 0 {
		i := len(want) / 2
		if row := s.Row(i); !sameCell(row[0], want[i][0]) {
			t.Fatalf("%s: Row(%d) = %v, want %v", ctx, i, row, want[i])
		}
	}
}

func TestRowsRoundTripProperty(t *testing.T) {
	for _, seal := range []int{1, 7, 64, 65, 100} {
		for seed := int64(1); seed <= 3; seed++ {
			ctx := fmt.Sprintf("seal=%d seed=%d", seal, seed)
			r := rand.New(rand.NewSource(seed*100 + int64(seal)))
			db := NewDB(propSchema())
			tab := db.Table("p")
			if err := tab.SetSegmentRows(seal); err != nil {
				t.Fatal(err)
			}
			if err := tab.BuildIndex("k"); err != nil { // maintained across appends
				t.Fatal(err)
			}

			// Append in random batches, single inserts included, so
			// batches straddle seal boundaries at every offset.
			var want []Row
			n := 150 + r.Intn(150)
			for len(want) < n {
				k := 1 + r.Intn(2*seal+3)
				batch := make([]Row, 0, k)
				for j := 0; j < k; j++ {
					batch = append(batch, propRow(r, len(want)+j))
				}
				if k == 1 {
					if err := tab.Insert(batch[0]...); err != nil {
						t.Fatal(err)
					}
				} else if err := tab.BulkInsert(batch); err != nil {
					t.Fatal(err)
				}
				for _, row := range batch {
					want = append(want, stored(tab.Meta, row))
				}
				checkRows(t, ctx+" append", tab.Snap(), want)
			}

			// Re-seal at a boundary that straddles the old one.
			if err := tab.SetSegmentRows(seal + 3); err != nil {
				t.Fatal(err)
			}
			checkRows(t, ctx+" reseal", tab.Snap(), want)

			// Partition: the canonical order becomes the partition
			// concatenation, each partition in arrival order.
			for _, scheme := range []PartScheme{
				HashPartition("s", 3),
				RangePartition("f", []Value{Float(0), Float(2)}),
				{Kind: PartNone},
			} {
				if err := tab.Partition(scheme); err != nil {
					t.Fatal(err)
				}
				sc := tab.PartScheme()
				var order []Row
				for p := 0; p < sc.N; p++ {
					for _, row := range want {
						if sc.N == 1 || sc.Route(row[sc.Ci]) == p {
							order = append(order, row)
						}
					}
				}
				want = order
				checkRows(t, fmt.Sprintf("%s partition %s", ctx, sc.Kind), tab.Snap(), want)
			}

			// Spill every sealed segment, evict all payloads, fault back.
			if err := db.EnableSpill(t.TempDir(), 1); err != nil {
				t.Fatal(err)
			}
			_ = tab.Snap().Segments() // adopt
			db.SegCache().EvictAll()
			checkRows(t, ctx+" spill/evict/fault", tab.Snap(), want)
			if st := db.SegCache().Stats(); seal < len(want) && (st.SpilledSegs == 0 || st.Misses == 0) {
				t.Fatalf("%s: spill path not exercised: %+v", ctx, st)
			}
			// Index probes and statistics read the faulted cells too.
			for _, k := range []int64{0, int64(len(want) / 18)} {
				ids, _ := tab.Snap().LookupIndex("k", Int(k))
				cnt := 0
				for _, row := range want {
					if !row[4].IsNull() && row[4].Int64() == k {
						cnt++
					}
				}
				if len(ids) != cnt {
					t.Fatalf("%s: index probe k=%d: %d ids, want %d", ctx, k, len(ids), cnt)
				}
			}
		}
	}
}
