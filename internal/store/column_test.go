package store

import (
	"strings"
	"testing"

	"repro/internal/schema"
)

func colTestDB(t *testing.T) *DB {
	t.Helper()
	s := schema.MustNew("t", []*schema.Table{{
		Name:       "m",
		PrimaryKey: "id",
		Columns: []schema.Column{
			{Name: "id", Type: schema.Int},
			{Name: "score", Type: schema.Float},
			{Name: "name", Type: schema.Text},
			{Name: "flag", Type: schema.Bool},
		},
	}}, nil)
	return NewDB(s)
}

// TestTailColumnsRoundTrip: the tail's plain columns must hold
// exactly the inserted values — including INT→FLOAT widening into
// FLOAT columns and NULLs in the bitmap — and box them back unchanged.
// A later insert extends the data slices in place while the earlier
// snapshot keeps its own length, zone maps and null bitmap.
func TestTailColumnsRoundTrip(t *testing.T) {
	db := colTestDB(t)
	tab := db.Table("m")
	rows := []Row{
		{Int(1), Int(2), Text("a"), Bool(true)}, // INT 2 widens to FLOAT 2.0
		{Int(2), Float(3.5), Null(), Bool(false)},
		{Int(3), Null(), Text("c"), Null()},
	}
	for _, r := range rows {
		if err := tab.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	before := tab.Snap()
	ss := before.Segments()
	if len(ss.Segs) != 1 || ss.Segs[0].Sealed {
		t.Fatalf("want one unsealed tail, got %d segments", len(ss.Segs))
	}
	cols := ss.Segs[0].MustCols()
	if cols[1].Kind != KindFloat || cols[1].Enc != SegPlain {
		t.Fatalf("score column = %v/%v, want plain FLOAT", cols[1].Kind, cols[1].Enc)
	}
	if got := cols[1].Floats[0]; got != 2.0 {
		t.Errorf("widened INT stored as %v, want 2.0", got)
	}
	want := []Row{
		{Int(1), Float(2), Text("a"), Bool(true)},
		{Int(2), Float(3.5), Null(), Bool(false)},
		{Int(3), Null(), Text("c"), Null()},
	}
	for ri := range want {
		for ci := range cols {
			if got := cols[ci].Value(ri); got.Kind() != want[ri][ci].Kind() || Compare(got, want[ri][ci]) != 0 {
				t.Errorf("row %d col %d: tail holds %v, want %v", ri, ci, got, want[ri][ci])
			}
		}
	}
	if !cols[2].IsNull(1) || cols[2].IsNull(0) {
		t.Error("text null bitmap wrong")
	}
	if z := cols[1].Zone; z.Rows != 3 || z.Nulls != 1 || Compare(z.Min, Float(2)) != 0 || Compare(z.Max, Float(3.5)) != 0 {
		t.Errorf("score zone = %+v", z)
	}

	if err := tab.Insert(Int(4), Float(1), Null(), Bool(true)); err != nil {
		t.Fatal(err)
	}
	fresh := tab.Snap().Segments().Segs[0].MustCols()
	if fresh[0].N != 4 || len(fresh[0].Ints) != 4 {
		t.Fatalf("extended tail has %d rows, want 4", fresh[0].N)
	}
	if cap(cols[0].Ints) >= 4 && &fresh[0].Ints[0] != &cols[0].Ints[0] {
		t.Error("tail data slice was copied, not extended in place")
	}
	if &fresh[2].Nuls[0] == &cols[2].Nuls[0] {
		t.Error("tail null bitmap shared across versions")
	}
	if cols[0].N != 3 || cols[2].IsNull(3) || before.Len() != 3 || cols[1].Zone.Rows != 3 {
		t.Error("earlier snapshot's tail moved")
	}
	if z := fresh[1].Zone; z.Rows != 4 || Compare(z.Min, Float(1)) != 0 {
		t.Errorf("extended score zone = %+v", z)
	}
	if got := tab.Row(3); !got[2].IsNull() || got[1].Kind() != KindFloat {
		t.Errorf("row 3 = %v", got)
	}
}

// TestBulkInsertMatchesInsert: the bulk path must produce the same
// table state (rows, indexes, stats, lookups) as per-row Insert, while
// rebuilding pre-existing indexes once.
func TestBulkInsertMatchesInsert(t *testing.T) {
	mk := func() (*DB, *Table) {
		db := colTestDB(t)
		return db, db.Table("m")
	}
	rows := make([]Row, 0, 300)
	for i := 0; i < 300; i++ {
		rows = append(rows, Row{Int(int64(i)), Float(float64(i % 7)), Text("n" + strings.Repeat("x", i%3)), Bool(i%2 == 0)})
	}

	_, a := mk()
	if err := a.BuildIndex("id"); err != nil { // indexes exist before the load
		t.Fatal(err)
	}
	if err := a.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}

	_, b := mk()
	if err := b.BuildIndex("id"); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := b.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}

	if a.Len() != b.Len() {
		t.Fatalf("row counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Row(i).String() != b.Row(i).String() {
			t.Errorf("row %d differs: %s vs %s", i, a.Row(i), b.Row(i))
		}
	}
	for _, probe := range []Value{Int(0), Int(150), Int(299), Int(1000)} {
		ia, oka := a.Snap().LookupIndex("id", probe)
		ib, okb := b.Snap().LookupIndex("id", probe)
		if oka != okb || len(ia) != len(ib) {
			t.Errorf("index lookup %v differs: %v/%v vs %v/%v", probe, ia, oka, ib, okb)
		}
	}
	lo, hi := Int(10), Int(20)
	ra, oka, _ := a.Snap().LookupRange("id", &lo, &hi, true, true)
	rb, okb, _ := b.Snap().LookupRange("id", &lo, &hi, true, true)
	if !oka || !okb || len(ra) != len(rb) {
		t.Errorf("range lookup differs: %d/%v vs %d/%v", len(ra), oka, len(rb), okb)
	}
	sa, _ := a.Snap().Stats("score")
	sb, _ := b.Snap().Stats("score")
	if sa != sb {
		t.Errorf("stats differ: %+v vs %+v", sa, sb)
	}
	if a.Version() == 0 {
		t.Error("BulkInsert did not bump the data version")
	}
}

// TestBulkInsertValidates: arity and type errors must reject exactly
// like Insert, and a mid-batch error must leave the table unchanged —
// no orphan rows, no version bump (the plan and answer caches both key
// off the version).
func TestBulkInsertValidates(t *testing.T) {
	db := colTestDB(t)
	tab := db.Table("m")
	if err := tab.BulkInsert([]Row{{Int(1)}}); err == nil {
		t.Error("arity error not caught")
	}
	if err := tab.BulkInsert([]Row{{Text("x"), Float(1), Text("a"), Bool(true)}}); err == nil {
		t.Error("type error not caught")
	}
	if err := tab.BulkInsert(nil); err != nil {
		t.Errorf("empty bulk insert: %v", err)
	}
	// Atomicity: a valid row followed by a bad one inserts nothing.
	before := tab.Version()
	err := tab.BulkInsert([]Row{
		{Int(1), Float(1), Text("ok"), Bool(true)},
		{Int(2)},
	})
	if err == nil {
		t.Fatal("mixed batch error not caught")
	}
	if tab.Len() != 0 {
		t.Errorf("failed bulk insert left %d rows behind", tab.Len())
	}
	if tab.Version() != before {
		t.Error("failed bulk insert bumped the data version")
	}
}

// TestBitmap covers the null-bitmap primitive.
func TestBitmap(t *testing.T) {
	b := NewBitmap(130)
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !b.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(128) {
		t.Error("unexpected bit set")
	}
	if !b.AnyRange(60, 70) || b.AnyRange(65, 129) {
		t.Error("AnyRange wrong")
	}
	var nilMap Bitmap
	if nilMap.Get(5) || nilMap.AnyRange(0, 100) {
		t.Error("nil bitmap should be all-clear")
	}
}
