package exec_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
)

// Allocation guards for the vectorized filter and join hot paths,
// enforced by cmd/allocguard in CI alongside the segment-scan
// budgets. Plans are compiled and both columnar layouts built outside
// the timed region, so allocs/op is the per-query steady state:
// batch-count-proportional, never row-proportional.

// BenchmarkVecFilterNumeric pins the vectorized comparison-filter
// path: numeric predicates over non-clustered float and int columns
// of a 100K-row event log (zone maps cannot skip, dictionaries do not
// apply), reduced by COUNT so output stays O(1).
func BenchmarkVecFilterNumeric(b *testing.B) {
	run := segBenchPlan(b,
		"SELECT COUNT(*) FROM events WHERE latency_ms > 200 AND device_id < 1024")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVecHashJoin pins the vectorized hash-join path: orders
// joined to customers with a grouped aggregate on top, on a scaled
// sales dataset.
func BenchmarkVecHashJoin(b *testing.B) {
	db := dataset.Sales(50)
	sn := db.Snapshot()
	stmt := sql.MustParse("SELECT c.name, COUNT(*) FROM orders o, customers c " +
		"WHERE o.customer_id = c.customer_id GROUP BY c.name ORDER BY COUNT(*) DESC")
	p, err := exec.BuildPlanParallelAt(sn, stmt, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := runAt(sn, p); err != nil { // warm-up builds layouts
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runAt(sn, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVecCountDistinct pins the DISTINCT-aggregate path: a
// COUNT(DISTINCT) group-by over a join — the shape the SQL generator
// emits for every count over a join — on the university data at scale
// 4. The per-group seen sets must grow per distinct value, never per
// input row.
func BenchmarkVecCountDistinct(b *testing.B) {
	db := dataset.University(4)
	sn := db.Snapshot()
	stmt := sql.MustParse("SELECT d.name, COUNT(DISTINCT s.id) FROM students s, departments d " +
		"WHERE s.dept_id = d.dept_id GROUP BY d.name")
	p, err := exec.BuildPlanParallelAt(sn, stmt, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := runAt(sn, p); err != nil { // warm-up builds layouts
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runAt(sn, p); err != nil {
			b.Fatal(err)
		}
	}
}
