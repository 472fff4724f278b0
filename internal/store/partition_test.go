package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/schema"
)

func partSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustNew("parts", []*schema.Table{
		{
			Name:       "items",
			PrimaryKey: "id",
			Columns: []schema.Column{
				{Name: "id", Type: schema.Int},
				{Name: "grp", Type: schema.Int},
				{Name: "name", Type: schema.Text},
				{Name: "score", Type: schema.Float},
			},
		},
	}, nil)
}

func partRows(n int) []Row {
	rows := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		score := Float(float64(i%97) / 3)
		if i%13 == 5 {
			score = Null()
		}
		rows = append(rows, Row{
			Int(int64(i)),
			Int(int64(i % 17)),
			Text(fmt.Sprintf("item-%03d", i%50)),
			score,
		})
	}
	return rows
}

// TestRouteStability pins the routing function: deterministic, in
// range, and (for range schemes) respecting the bound order with NULLs
// in partition 0.
func TestRouteStability(t *testing.T) {
	h := HashPartition("id", 8)
	for i := 0; i < 1000; i++ {
		p := h.Route(Int(int64(i)))
		if p < 0 || p >= 8 {
			t.Fatalf("hash route out of range: %d", p)
		}
		if q := h.Route(Int(int64(i))); q != p {
			t.Fatalf("hash route not deterministic: %d vs %d", p, q)
		}
	}
	r := RangePartition("id", []Value{Int(10), Int(20)})
	for v, want := range map[int64]int{-5: 0, 0: 0, 9: 0, 10: 1, 19: 1, 20: 2, 100: 2} {
		if got := r.Route(Int(v)); got != want {
			t.Fatalf("range route(%d) = %d, want %d", v, got, want)
		}
	}
	if got := r.Route(Null()); got != 0 {
		t.Fatalf("NULL must route to partition 0, got %d", got)
	}
}

// TestPartitionedReadsMatchSingle loads the same rows into an
// unpartitioned table and hash/range-partitioned ones, and requires
// every merged read view — row set, point and range index probes,
// statistics — to agree. Partitioning reorders the canonical row
// sequence, so row-identity comparisons go through the primary key.
func TestPartitionedReadsMatchSingle(t *testing.T) {
	const n = 500
	for _, tc := range []struct {
		name   string
		scheme PartScheme
	}{
		{"hash8", HashPartition("grp", 8)},
		{"hash3", HashPartition("id", 3)},
		{"range4", RangePartition("id", []Value{Int(100), Int(250), Int(400)})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			single := NewDB(partSchema(t))
			parted := NewDB(partSchema(t))
			for _, db := range []*DB{single, parted} {
				if err := db.Table("items").BuildIndex("id"); err != nil {
					t.Fatal(err)
				}
				if err := db.Table("items").BuildIndex("grp"); err != nil {
					t.Fatal(err)
				}
				db.MustBulkInsert("items", partRows(n))
			}
			if err := parted.PartitionTable("items", tc.scheme); err != nil {
				t.Fatal(err)
			}
			ss, ps := single.Table("items").Snap(), parted.Table("items").Snap()
			if ps.NumParts() != tc.scheme.N {
				t.Fatalf("NumParts = %d, want %d", ps.NumParts(), tc.scheme.N)
			}
			if ss.Len() != ps.Len() {
				t.Fatalf("Len: %d vs %d", ss.Len(), ps.Len())
			}

			// Same bag of rows, keyed by id; Row(i) must agree with Rows().
			seen := map[int64]Row{}
			for i, r := range ps.Rows() {
				seen[r[0].Int64()] = r
				if got := ps.Row(i); got[0].Int64() != r[0].Int64() {
					t.Fatalf("Row(%d) diverges from Rows()[%d]", i, i)
				}
			}
			for _, r := range ss.Rows() {
				pr, ok := seen[r[0].Int64()]
				if !ok {
					t.Fatalf("row id=%d missing from partitioned table", r[0].Int64())
				}
				for c := range r {
					if Compare(r[c], pr[c]) != 0 && !(r[c].IsNull() && pr[c].IsNull()) {
						t.Fatalf("row id=%d column %d differs", r[0].Int64(), c)
					}
				}
			}

			// Point probes resolve the same rows through the merged index.
			for _, g := range []int64{0, 7, 16} {
				sids, _ := ss.LookupIndex("grp", Int(g))
				pids, ok := ps.LookupIndex("grp", Int(g))
				if !ok {
					t.Fatalf("merged view lost the grp index")
				}
				if len(sids) != len(pids) {
					t.Fatalf("grp=%d: %d ids vs %d", g, len(sids), len(pids))
				}
				for _, id := range pids {
					if ps.Row(id)[1].Int64() != g {
						t.Fatalf("grp=%d probe returned row with grp=%d", g, ps.Row(id)[1].Int64())
					}
				}
			}

			// Range probes return the same multiset of values, ascending.
			lo, hi := Int(50), Int(199)
			sids, _, _ := ss.LookupRange("id", &lo, &hi, true, true)
			pids, ok, _ := ps.LookupRange("id", &lo, &hi, true, true)
			if !ok {
				t.Fatalf("merged view lost the ordered index")
			}
			if len(sids) != len(pids) {
				t.Fatalf("range: %d ids vs %d", len(sids), len(pids))
			}
			prev := int64(-1 << 62)
			for i := range pids {
				v := ps.Row(pids[i])[0].Int64()
				if v < prev {
					t.Fatalf("merged LookupRange out of order: %d after %d", v, prev)
				}
				prev = v
				if sv := ss.Row(sids[i])[0].Int64(); sv != v {
					t.Fatalf("range position %d: %d vs %d", i, sv, v)
				}
			}

			// Stats: counts and bounds merge exactly; distinct is exact on
			// the partition column of a hash scheme and bounded otherwise.
			for _, col := range []string{"id", "grp", "score"} {
				sst, _ := ss.Stats(col)
				pst, _ := ps.Stats(col)
				if sst.Rows != pst.Rows || sst.Nulls != pst.Nulls {
					t.Fatalf("stats %s: rows/nulls %d/%d vs %d/%d", col, sst.Rows, sst.Nulls, pst.Rows, pst.Nulls)
				}
				if Compare(sst.Min, pst.Min) != 0 || Compare(sst.Max, pst.Max) != 0 {
					t.Fatalf("stats %s: min/max diverge", col)
				}
				if pst.Distinct < sst.Distinct || pst.Distinct > pst.Rows-pst.Nulls {
					t.Fatalf("stats %s: merged distinct %d outside [%d, %d]", col, pst.Distinct, sst.Distinct, pst.Rows-pst.Nulls)
				}
			}
			if tc.scheme.Kind == PartHash {
				sst, _ := ss.Stats(tc.scheme.Col)
				pst, _ := ps.Stats(tc.scheme.Col)
				if pst.Distinct != sst.Distinct {
					t.Fatalf("hash partition column distinct must merge exactly: %d vs %d", pst.Distinct, sst.Distinct)
				}
			}
		})
	}
}

// TestPartitionedSegmentsCoverAllRows checks the merged segment layout:
// per-partition segments concatenated under global start offsets, with
// Locate resolving every row to the segment that contains it.
func TestPartitionedSegmentsCoverAllRows(t *testing.T) {
	db := NewDB(partSchema(t))
	db.Table("items").SetSegmentRows(64)
	db.MustBulkInsert("items", partRows(1000))
	if err := db.PartitionTable("items", HashPartition("grp", 4)); err != nil {
		t.Fatal(err)
	}
	sn := db.Table("items").Snap()
	ss := sn.Segments()
	if ss.N != sn.Len() {
		t.Fatalf("merged SegSet covers %d rows, table has %d", ss.N, sn.Len())
	}
	covered := 0
	for si, seg := range ss.Segs {
		if si > 0 && ss.Start[si] != ss.Start[si-1]+ss.Segs[si-1].N {
			t.Fatalf("segment %d start %d does not follow previous", si, ss.Start[si])
		}
		covered += seg.N
	}
	if covered != sn.Len() {
		t.Fatalf("segments cover %d rows of %d", covered, sn.Len())
	}
	for _, row := range []int{0, 63, 64, 500, sn.Len() - 1} {
		si, off := ss.Locate(row)
		if ss.Start[si]+off != row {
			t.Fatalf("Locate(%d) = (%d, %d), start %d", row, si, off, ss.Start[si])
		}
	}
	// Per-partition views expose partition-local segment sets that share
	// the same *Segment values with the merged view.
	mergedSegs := map[*Segment]bool{}
	for _, seg := range ss.Segs {
		mergedSegs[seg] = true
	}
	for p := 0; p < sn.NumParts(); p++ {
		for _, seg := range sn.Part(p).Segments().Segs {
			if !mergedSegs[seg] {
				t.Fatalf("partition %d segment not shared with merged view", p)
			}
		}
	}
}

// TestRepartitionVersioning: index DDL leaves the data version alone,
// row loads and repartitioning bump it.
func TestRepartitionVersioning(t *testing.T) {
	db := NewDB(partSchema(t))
	tab := db.Table("items")
	db.MustBulkInsert("items", partRows(10))
	v0 := tab.Version()
	if err := tab.BuildIndex("grp"); err != nil {
		t.Fatal(err)
	}
	if v := tab.Version(); v != v0 {
		t.Fatalf("index DDL moved the version: %d -> %d", v0, v)
	}
	if err := tab.Partition(HashPartition("grp", 4)); err != nil {
		t.Fatal(err)
	}
	if v := tab.Version(); v <= v0 {
		t.Fatalf("repartition must bump the version: %d -> %d", v0, v)
	}
	v1 := tab.Version()
	db.MustBulkInsert("items", partRows(10))
	if v := tab.Version(); v <= v1 {
		t.Fatalf("partitioned load must bump the version: %d -> %d", v1, v)
	}
	if !tab.Snap().HasIndex("grp") {
		t.Fatal("repartition dropped the grp index")
	}
}

// TestConcurrentPartitionLoadsAtomic drives concurrent per-partition
// bulk loads against pinned readers. Every batch holds one constant grp
// value, so it routes to a single partition; a reader's snapshot must
// see each batch entirely or not at all (partition-atomic publication),
// and the total must land exactly once.
func TestConcurrentPartitionLoadsAtomic(t *testing.T) {
	const (
		loaders   = 4
		batches   = 16
		batchRows = 64
	)
	db := NewDB(partSchema(t))
	if err := db.PartitionTable("items", HashPartition("grp", 8)); err != nil {
		t.Fatal(err)
	}
	tab := db.Table("items")

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := tab.Snap()
				counts := map[int64]int{}
				for _, row := range sn.Rows() {
					counts[row[1].Int64()]++
				}
				for g, c := range counts {
					if c%batchRows != 0 {
						t.Errorf("snapshot saw %d rows of batch group %d — not a whole batch multiple", c, g)
						return
					}
				}
			}
		}()
	}

	var loaderWG sync.WaitGroup
	for l := 0; l < loaders; l++ {
		loaderWG.Add(1)
		go func(l int) {
			defer loaderWG.Done()
			for b := 0; b < batches; b++ {
				g := int64(l*batches + b) // constant per batch -> one partition
				rows := make([]Row, batchRows)
				for i := range rows {
					rows[i] = Row{Int(g*int64(batchRows) + int64(i)), Int(g), Text("x"), Float(1)}
				}
				if err := tab.BulkInsert(rows); err != nil {
					t.Error(err)
					return
				}
			}
		}(l)
	}
	loaderWG.Wait()
	close(stop)
	readers.Wait()

	if got, want := tab.Len(), loaders*batches*batchRows; got != want {
		t.Fatalf("loaded %d rows, want %d", got, want)
	}
	// No duplicates: every id must be unique.
	ids := map[int64]bool{}
	for _, row := range tab.Rows() {
		if ids[row[0].Int64()] {
			t.Fatalf("duplicate id %d after concurrent loads", row[0].Int64())
		}
		ids[row[0].Int64()] = true
	}
}

// TestRepartitionUnderLoad repartitions while loaders run: no row may
// be lost or duplicated, whichever layout each batch lands under.
func TestRepartitionUnderLoad(t *testing.T) {
	db := NewDB(partSchema(t))
	tab := db.Table("items")
	const loaders, batches, batchRows = 4, 12, 32

	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				base := int64((l*batches + b) * batchRows)
				rows := make([]Row, batchRows)
				for i := range rows {
					rows[i] = Row{Int(base + int64(i)), Int(base % 31), Text("x"), Float(0)}
				}
				if err := tab.BulkInsert(rows); err != nil {
					t.Error(err)
					return
				}
			}
		}(l)
	}
	schemes := []PartScheme{
		HashPartition("grp", 4),
		RangePartition("id", []Value{Int(512), Int(1024)}),
		HashPartition("id", 8),
		{Kind: PartNone},
	}
	for _, sc := range schemes {
		if err := tab.Partition(sc); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	want := loaders * batches * batchRows
	if got := tab.Len(); got != want {
		t.Fatalf("after repartition under load: %d rows, want %d", got, want)
	}
	ids := map[int64]bool{}
	for _, row := range tab.Rows() {
		if ids[row[0].Int64()] {
			t.Fatalf("duplicate id %d after repartition under load", row[0].Int64())
		}
		ids[row[0].Int64()] = true
	}
}
