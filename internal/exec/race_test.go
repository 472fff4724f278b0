package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// The race battery: every executor mode (serial, parallel, prepared,
// reference) reads while writers are actively
// publishing — single inserts, bulk batches, CSV loads — under the
// race detector. Writers maintain invariants that hold on every
// published version but on no torn mix of versions, so any query
// observing two versions at once fails loudly:
//
//   - events rows arrive only in batches of batchSize with a common
//     batch id and values summing to zero per batch;
//   - aux rows all carry v = 3.
//
// A query pinned to one snapshot therefore always sees COUNT(*)
// divisible by batchSize, SUM(val) = 0, and no partial batch group.

const batchSize = 32

func raceDB(t testing.TB) *store.DB {
	t.Helper()
	s := schema.MustNew("race", []*schema.Table{
		{Name: "events", Columns: []schema.Column{
			{Name: "batch", Type: schema.Int},
			{Name: "val", Type: schema.Int},
		}},
		{Name: "aux", Columns: []schema.Column{
			{Name: "k", Type: schema.Int},
			{Name: "v", Type: schema.Int},
		}},
		{Name: "csvt", Columns: []schema.Column{
			{Name: "batch", Type: schema.Int},
			{Name: "val", Type: schema.Int},
		}},
	}, nil)
	db := store.NewDB(s)
	if err := db.Table("events").BuildIndex("batch"); err != nil {
		t.Fatal(err)
	}
	return db
}

// eventBatch builds batch i of the events/csvt tables: batchSize rows,
// all tagged i, values pairing +j with -j so the batch sums to zero.
func eventBatch(i int) []store.Row {
	rows := make([]store.Row, batchSize)
	for j := 0; j < batchSize/2; j++ {
		v := int64(j + 1)
		rows[2*j] = store.Row{store.Int(int64(i)), store.Int(v)}
		rows[2*j+1] = store.Row{store.Int(int64(i)), store.Int(-v)}
	}
	return rows
}

// queryFns enumerates the executor modes under test. Each pins its own
// snapshot internally.
func queryFns() map[string]func(*store.DB, *sql.SelectStmt) (*Result, error) {
	return map[string]func(*store.DB, *sql.SelectStmt) (*Result, error){
		"serial":    Query,
		"parallel":  func(db *store.DB, s *sql.SelectStmt) (*Result, error) { return queryPar(db, s, 4) },
		"prepared":  queryPrepared,
		"reference": ReferenceQuery,
	}
}

// queryPar compiles stmt at parallel degree par and runs it, pinned to
// one snapshot.
func queryPar(db *store.DB, stmt *sql.SelectStmt, par int) (*Result, error) {
	sn := db.Snapshot()
	p, err := BuildPlanParallelAt(sn, stmt, par)
	if err != nil {
		return nil, err
	}
	return RunBoundCountedAtCtx(context.Background(), sn, p, nil, 0, nil, nil)
}

// queryPrepared runs stmt through the prepared path — lift constants,
// compile the template, bind them back — pinned to one snapshot.
func queryPrepared(db *store.DB, stmt *sql.SelectStmt) (*Result, error) {
	sn := db.Snapshot()
	pq, params, err := PrepareAt(sn, stmt)
	if err != nil {
		return nil, err
	}
	p, _, err := pq.Bind(sn, params, 1)
	if err != nil {
		return nil, err
	}
	return RunBoundCountedAtCtx(context.Background(), sn, p, params, 0, nil, nil)
}

// intCell unboxes a numeric aggregate cell (NULL counts as 0). It is
// called from reader goroutines, so it reports failure instead of
// calling into testing.T (FailNow must not run off the test goroutine).
func intCell(v store.Value) (int64, bool) {
	if v.IsNull() {
		return 0, true
	}
	f, ok := v.AsFloat()
	return int64(f), ok
}

// TestConcurrentReadersUnderWriters runs all executor modes against a
// writer inserting into events (bulk), aux (single rows) and csvt
// (CSV loader) and asserts every query saw exactly one snapshot.
func TestConcurrentReadersUnderWriters(t *testing.T) {
	db := raceDB(t)
	countSum := sql.MustParse("SELECT COUNT(*), SUM(val) FROM events")
	torn := sql.MustParse(
		fmt.Sprintf("SELECT batch, COUNT(*) FROM events GROUP BY batch HAVING COUNT(*) <> %d", batchSize))
	probe := sql.MustParse("SELECT COUNT(*) FROM events WHERE batch = 5")
	auxQ := sql.MustParse("SELECT COUNT(*), SUM(v) FROM aux")
	csvQ := sql.MustParse("SELECT COUNT(*), SUM(val) FROM csvt")

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < 40; i++ {
			if err := db.BulkInsert("events", eventBatch(i)); err != nil {
				t.Error(err)
				return
			}
			if err := db.Insert("aux", store.Int(int64(i)), store.Int(3)); err != nil {
				t.Error(err)
				return
			}
			var b strings.Builder
			b.WriteString("batch,val\n")
			for _, row := range eventBatch(i) {
				fmt.Fprintf(&b, "%d,%d\n", row[0].Int64(), row[1].Int64())
			}
			if _, err := db.LoadCSV("csvt", strings.NewReader(b.String())); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for name, fn := range queryFns() {
		wg.Add(1)
		go func(name string, fn func(*store.DB, *sql.SelectStmt) (*Result, error)) {
			defer wg.Done()
			for !done.Load() {
				res, err := fn(db, countSum)
				if err != nil {
					t.Errorf("%s count/sum: %v", name, err)
					return
				}
				n, okN := intCell(res.Rows[0][0])
				sum, okS := intCell(res.Rows[0][1])
				if !okN || !okS {
					t.Errorf("%s: non-numeric aggregate cells %v", name, res.Rows[0])
					return
				}
				if n%batchSize != 0 {
					t.Errorf("%s: torn read, COUNT(*) = %d not a multiple of %d", name, n, batchSize)
					return
				}
				if sum != 0 {
					t.Errorf("%s: torn read, SUM(val) = %d over %d rows", name, sum, n)
					return
				}

				res, err = fn(db, torn)
				if err != nil {
					t.Errorf("%s torn groups: %v", name, err)
					return
				}
				if len(res.Rows) != 0 {
					t.Errorf("%s: partial batch visible: %v", name, res.Rows[0])
					return
				}

				res, err = fn(db, probe)
				if err != nil {
					t.Errorf("%s probe: %v", name, err)
					return
				}
				if n, ok := intCell(res.Rows[0][0]); !ok || (n != 0 && n != batchSize) {
					t.Errorf("%s: index probe saw partial batch: %d rows (numeric=%v)", name, n, ok)
					return
				}

				for _, q := range []*sql.SelectStmt{auxQ, csvQ} {
					res, err = fn(db, q)
					if err != nil {
						t.Errorf("%s aux/csv: %v", name, err)
						return
					}
					n, okN := intCell(res.Rows[0][0])
					sum, okS := intCell(res.Rows[0][1])
					if !okN || !okS {
						t.Errorf("%s: non-numeric aggregate cells %v", name, res.Rows[0])
						return
					}
					if q == auxQ && sum != 3*n {
						t.Errorf("%s: aux torn read, SUM %d over %d rows", name, sum, n)
						return
					}
					if q == csvQ && (n%batchSize != 0 || sum != 0) {
						t.Errorf("%s: csv torn read, %d rows sum %d", name, n, sum)
						return
					}
				}
			}
		}(name, fn)
	}
	wg.Wait()

	// The final state must contain everything the writer published.
	res, err := Query(db, countSum)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := intCell(res.Rows[0][0]); !ok || n != 40*batchSize {
		t.Fatalf("final events count %d (numeric=%v), want %d", n, ok, 40*batchSize)
	}
}

// TestSnapshotQueryRepeatable: a query plan compiled and run on an
// explicitly pinned snapshot returns identical results before and
// after concurrent writes — the API-level snapshot-pinning contract
// (exec.QueryAt) the engine relies on.
func TestSnapshotQueryRepeatable(t *testing.T) {
	db := raceDB(t)
	for i := 0; i < 4; i++ {
		if err := db.BulkInsert("events", eventBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	sn := db.Snapshot()
	q := sql.MustParse("SELECT batch, COUNT(*), SUM(val) FROM events GROUP BY batch ORDER BY batch")
	before, err := QueryAt(sn, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 12; i++ {
		if err := db.BulkInsert("events", eventBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	after, err := QueryAt(sn, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != 4 || len(after.Rows) != len(before.Rows) {
		t.Fatalf("pinned snapshot drifted: %d then %d groups", len(before.Rows), len(after.Rows))
	}
	live, err := Query(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Rows) != 12 {
		t.Fatalf("live query sees %d groups, want 12", len(live.Rows))
	}
}

// TestTailAppendSnapshotRepeatable pins the in-place tail append:
// readers pinned before a run of appends keep seeing the same rows,
// length, segment coverage and query results while a writer extends
// the tail under them. The appends cross the seal boundary (the tail
// seals at publish) and put NULLs into the word of the tail's null
// bitmap the pinned readers also read — which must be copied, not
// written in place, or the race detector fires.
func TestTailAppendSnapshotRepeatable(t *testing.T) {
	s := schema.MustNew("tail", []*schema.Table{{Name: "t", Columns: []schema.Column{
		{Name: "id", Type: schema.Int},
		{Name: "v", Type: schema.Int},
		{Name: "s", Type: schema.Text},
	}}}, nil)
	db := store.NewDB(s)
	tab := db.Table("t")
	const seal = 100
	if err := tab.SetSegmentRows(seal); err != nil {
		t.Fatal(err)
	}
	next := 0
	mkRow := func() store.Row {
		row := store.Row{store.Int(int64(next)), store.Int(int64(next % 13)), store.Text(fmt.Sprintf("s%d", next%4))}
		if next%5 == 3 {
			row[1] = store.Null()
		}
		next++
		return row
	}
	batch := func(k int) []store.Row {
		rows := make([]store.Row, k)
		for i := range rows {
			rows[i] = mkRow()
		}
		return rows
	}
	if err := tab.BulkInsert(batch(seal + 45)); err != nil { // one sealed segment, a 45-row tail
		t.Fatal(err)
	}

	q := sql.MustParse("SELECT s, COUNT(*), COUNT(v), SUM(v) FROM t WHERE id >= 0 GROUP BY s ORDER BY s")
	type view struct {
		sn   *store.Snapshot
		rows string
		n    int
		segN int
		res  string
	}
	capture := func(sn *store.Snapshot) view {
		ts := sn.Table("t")
		res, err := QueryAt(sn, q)
		if err != nil {
			t.Fatal(err)
		}
		return view{sn: sn, rows: store.FormatRows(ts.Rows()), n: ts.Len(), segN: ts.Segments().N, res: FormatResult(res)}
	}
	pins := []view{capture(db.Snapshot())}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	check := func(v view) error {
		ts := v.sn.Table("t")
		if ts.Len() != v.n || ts.Segments().N != v.segN {
			return fmt.Errorf("pinned length moved: %d/%d, want %d/%d", ts.Len(), ts.Segments().N, v.n, v.segN)
		}
		if got := store.FormatRows(ts.Rows()); got != v.rows {
			return fmt.Errorf("pinned rows moved at %d rows", v.n)
		}
		for _, par := range []int{1, 4} {
			p, err := BuildPlanParallelAt(v.sn, q, par)
			if err != nil {
				return err
			}
			res, err := RunBoundCountedAtCtx(context.Background(), v.sn, p, nil, 0, nil, nil)
			if err != nil {
				return err
			}
			if got := FormatResult(res); got != v.res {
				return fmt.Errorf("pinned query result moved at par %d:\n%s\nwant\n%s", par, got, v.res)
			}
		}
		ref, err := ReferenceQueryAt(v.sn, q)
		if err != nil {
			return err
		}
		if got := FormatResult(ref); got != v.res {
			return fmt.Errorf("pinned reference result moved:\n%s\nwant\n%s", got, v.res)
		}
		return nil
	}
	first := pins[0]
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := check(first); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	// Single-row inserts land NULLs in the shared bitmap word, then a
	// bulk batch crosses the seal boundary and starts a fresh tail.
	for i := 0; i < 12; i++ {
		if err := tab.Insert(mkRow()...); err != nil {
			t.Fatal(err)
		}
		pins = append(pins, capture(db.Snapshot()))
	}
	for _, k := range []int{70, 3, 130} {
		if err := tab.BulkInsert(batch(k)); err != nil {
			t.Fatal(err)
		}
		pins = append(pins, capture(db.Snapshot()))
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if segs := db.Table("t").Snap().Segments().Segs; len(segs) < 3 || !segs[1].Sealed {
		t.Fatalf("appends did not cross the seal boundary: %d segments", len(segs))
	}
	for _, v := range pins {
		if err := check(v); err != nil {
			t.Fatal(err)
		}
	}
}
