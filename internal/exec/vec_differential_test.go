package exec_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/store"
)

// TestVecDifferentialCorpus runs every gold query of the full
// benchmark corpus (all domains) through the batch executor at
// parallelism 1 and 4, requiring every plan to be batch-executed, the
// two degrees to agree ROW-FOR-ROW (order included), and both to match
// the materializing reference oracle as a bag. This is the executor's
// end-to-end safety net: typed hash keys, selection vectors, batch
// kernels and the evaluator fallback must never change results.
func TestVecDifferentialCorpus(t *testing.T) {
	for _, domain := range dataset.Names() {
		db, err := dataset.ByName(domain, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range bench.Corpus(domain) {
			stmt, err := sql.Parse(cs.Gold)
			if err != nil {
				t.Fatalf("%s: gold does not parse: %v", cs.ID, err)
			}
			checkParity(t, db.Snapshot(), cs.ID, stmt)
		}
	}
}

// checkParity runs stmt at degrees 1 and 4 on sn and requires Plan.Vec,
// row-for-row agreement between the degrees, and bag agreement with
// the reference oracle.
func checkParity(t *testing.T, sn *store.Snapshot, name string, stmt *sql.SelectStmt) {
	t.Helper()
	reference, err := exec.ReferenceQueryAt(sn, stmt)
	if err != nil {
		t.Fatalf("%s: reference execution failed: %v\n%s", name, err, stmt)
	}
	var serial *exec.Result
	for _, par := range []int{1, 4} {
		p, err := exec.BuildPlanParallelAt(sn, stmt, par)
		if err != nil {
			t.Fatalf("%s: compile failed (par=%d): %v\n%s", name, par, err, stmt)
		}
		if !p.Vec {
			t.Errorf("%s: plan not batch-executed (par=%d)\n%s", name, par, stmt)
		}
		res, err := runAt(sn, p)
		if err != nil {
			t.Fatalf("%s: execution failed (par=%d): %v\n%s", name, par, err, stmt)
		}
		if !bench.SameResult(res, reference) {
			t.Errorf("%s (par=%d): result differs from the reference oracle\nsql: %s\ngot:  %v\nwant: %v",
				name, par, stmt, res.Rows, reference.Rows)
		}
		if serial == nil {
			serial = res
		} else if err := rowsIdentical(serial, res); err != nil {
			t.Errorf("%s: par=%d vs serial: %v\nsql: %s", name, par, err, stmt)
		}
	}
}

func rowsIdentical(a, b *exec.Result) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("%d rows vs %d rows", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if !bench.RowsEqual(a.Rows[i], b.Rows[i]) {
			return fmt.Errorf("row %d differs: %s vs %s", i, a.Rows[i], b.Rows[i])
		}
	}
	return nil
}

// TestVecDifferentialScaled repeats the differential check at a larger
// scale on the join-heavy university corpus, and again with all
// indexes dropped (exercising the full-scan batch path).
func TestVecDifferentialScaled(t *testing.T) {
	for _, drop := range []bool{false, true} {
		db := dataset.University(2)
		if drop {
			db.DropAllIndexes()
		}
		for _, cs := range bench.Corpus("university") {
			stmt, err := sql.Parse(cs.Gold)
			if err != nil {
				t.Fatal(err)
			}
			checkParity(t, db.Snapshot(), fmt.Sprintf("%s (drop=%v)", cs.ID, drop), stmt)
		}
	}
}

// fallbackDB is a two-table fixture with NULLs on a rotating schedule,
// large enough (p: 2000 rows) that plans parallelize at degree 4, plus
// a 2600-row table whose cross product with p exceeds MaxProduct.
// Floats are multiples of 0.5, so sums are exact in any order.
func fallbackDB() *store.DB {
	s := schema.MustNew("fallback", []*schema.Table{
		{Name: "p", Columns: []schema.Column{
			{Name: "id", Type: schema.Int},
			{Name: "grp", Type: schema.Int},
			{Name: "v", Type: schema.Float},
			{Name: "tag", Type: schema.Text},
		}},
		{Name: "q", Columns: []schema.Column{
			{Name: "pid", Type: schema.Int},
			{Name: "w", Type: schema.Int},
		}},
		{Name: "r", Columns: []schema.Column{
			{Name: "id", Type: schema.Int},
		}},
	}, nil)
	db := store.NewDB(s)
	var p, q, r []store.Row
	for i := 0; i < 2000; i++ {
		row := store.Row{store.Int(int64(i)), store.Int(int64(i % 7)),
			store.Float(float64(i%13) * 0.5), store.Text(fmt.Sprintf("t%d", i%4))}
		if i%5 == 0 {
			row[2] = store.Null()
		}
		if i%11 == 0 {
			row[3] = store.Null()
		}
		p = append(p, row)
	}
	for i := 0; i < 600; i++ {
		row := store.Row{store.Int(int64(i * 7 % 2000)), store.Int(int64(i % 9))}
		if i%3 == 0 {
			row[1] = store.Null()
		}
		q = append(q, row)
	}
	for i := 0; i < 2600; i++ {
		r = append(r, store.Row{store.Int(int64(i))})
	}
	db.MustBulkInsert("p", p)
	db.MustBulkInsert("q", q)
	db.MustBulkInsert("r", r)
	return db
}

// TestVecFallback pins the shapes the vector compiler declines — they
// run through the evaluator fallback inside the batch operators — at
// degrees 1 and 4, against the reference oracle and each other.
func TestVecFallback(t *testing.T) {
	db := fallbackDB()
	sn := db.Snapshot()
	cases := []struct{ name, query string }{
		{"correlated subquery in WHERE",
			"SELECT id FROM p WHERE id < 300 AND v > (SELECT AVG(w) FROM q WHERE q.pid = p.id)"},
		{"correlated subquery in SELECT list",
			"SELECT id, (SELECT COUNT(*) FROM q WHERE q.pid = p.id) FROM p WHERE id < 300 ORDER BY id"},
		{"correlated subquery in HAVING",
			"SELECT grp, COUNT(*) FROM p GROUP BY grp HAVING COUNT(*) > (SELECT COUNT(*) FROM q WHERE q.w = p.grp) * 4"},
		{"uncorrelated scalar subquery",
			"SELECT COUNT(*) FROM p WHERE v > (SELECT AVG(w) FROM q)"},
		{"non-boolean conjunct beside a subquery",
			"SELECT COUNT(*) FROM p WHERE grp AND id < 1500 AND v > (SELECT AVG(w) FROM q)"},
		{"EXISTS",
			"SELECT id FROM p WHERE id < 300 AND EXISTS (SELECT 1 FROM q WHERE q.pid = p.id AND q.w > 4)"},
		{"NOT EXISTS",
			"SELECT COUNT(*) FROM p WHERE NOT EXISTS (SELECT 1 FROM q WHERE q.pid = p.id)"},
		{"IN with a NULL in the subquery",
			"SELECT grp, COUNT(*) FROM p WHERE grp IN (SELECT w FROM q) GROUP BY grp ORDER BY grp"},
		{"NOT IN with a NULL in the subquery",
			"SELECT COUNT(*) FROM p WHERE grp NOT IN (SELECT w FROM q)"},
		{"NOT IN without NULLs",
			"SELECT COUNT(*) FROM p WHERE grp NOT IN (SELECT w FROM q WHERE w IS NOT NULL AND w > 3)"},
		{"COUNT/AVG/SUM DISTINCT over NULLs",
			"SELECT grp, COUNT(DISTINCT v), AVG(DISTINCT v), SUM(DISTINCT v), COUNT(DISTINCT tag), MAX(DISTINCT tag) " +
				"FROM p GROUP BY grp ORDER BY grp"},
		{"global DISTINCT aggregates",
			"SELECT COUNT(DISTINCT w), AVG(DISTINCT w), COUNT(w), COUNT(*) FROM q"},
		{"COUNT DISTINCT over a join",
			"SELECT p.grp, COUNT(DISTINCT q.w) FROM p, q WHERE q.pid = p.id GROUP BY p.grp ORDER BY p.grp"},
		{"bare non-grouped column",
			"SELECT grp, tag, COUNT(*) FROM p GROUP BY grp ORDER BY grp"},
		{"empty global group",
			"SELECT COUNT(*), MAX(v), COUNT(DISTINCT tag), tag FROM p WHERE id < 0"},
		{"cross join",
			"SELECT COUNT(*), SUM(a.w) FROM q a, q b WHERE a.w > b.w"},
		{"cross join rows",
			"SELECT a.pid, b.pid FROM q a, q b WHERE a.w = 8 AND b.w = 1 AND a.pid < 200 ORDER BY a.pid, b.pid"},
	}
	for _, c := range cases {
		checkParity(t, sn, c.name, sql.MustParse(c.query))
	}

	// A cross join over MaxProduct fails at every degree.
	for _, par := range []int{1, 4} {
		if _, err := queryPar(sn, sql.MustParse("SELECT COUNT(*) FROM p, r"), par); err == nil ||
			!strings.Contains(err.Error(), "would produce over") {
			t.Errorf("par=%d: cross join over MaxProduct returned %v, want the product error", par, err)
		}
	}

	// Cancellation lands while a cross join emits: a 4M-row product
	// under a per-row evaluator filter runs for seconds uncanceled, so
	// the run must return the cause well before that.
	cause := errors.New("request abandoned (cross join)")
	heavy := sql.MustParse("SELECT COUNT(*) FROM p a, p b WHERE a.id + b.id > (SELECT MIN(pid) FROM q)")
	for _, par := range []int{1, 4} {
		p, err := exec.BuildPlanParallelAt(sn, heavy, par)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancelCause(context.Background())
		timer := time.AfterFunc(5*time.Millisecond, func() { cancel(cause) })
		start := time.Now()
		_, err = exec.RunBoundCountedAtCtx(ctx, sn, p, nil, 0, nil, nil)
		elapsed := time.Since(start)
		timer.Stop()
		cancel(nil)
		if !errors.Is(err, cause) {
			t.Errorf("par=%d: canceled cross join returned %v, want cause %v", par, err, cause)
		}
		if elapsed > time.Second {
			t.Errorf("par=%d: canceled cross join returned after %v", par, elapsed)
		}
	}
}

// TestVecAggBigIntExact: MIN/MAX over integers must compare exactly,
// like the reference oracle's int store.Compare — a float64 round-trip
// collapses distinct values beyond 2^53.
func TestVecAggBigIntExact(t *testing.T) {
	s := schema.MustNew("big", []*schema.Table{{
		Name: "t",
		Columns: []schema.Column{
			{Name: "a", Type: schema.Int},
		},
	}}, nil)
	db := store.NewDB(s)
	big := int64(1 << 53)
	// Insertion order matters: the larger value first would win a
	// first-of-float-equals MIN.
	db.MustInsert("t", store.Int(big+1))
	db.MustInsert("t", store.Int(big))
	for _, q := range []string{
		"SELECT MIN(a) FROM t",
		"SELECT MAX(a) FROM t",
		"SELECT COUNT(DISTINCT a) FROM t",
	} {
		checkParity(t, db.Snapshot(), q, sql.MustParse(q))
	}
}
