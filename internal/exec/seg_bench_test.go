package exec_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sql"
)

// BenchmarkSegCacheHit pins the allocation budget of the warm segment
// cache: the same dict-filter scan as BenchmarkSegScanDictFilter, but
// over a spill-enabled store with an ample budget so every Cols read
// is a cache hit. The hit path must cost no more allocations than the
// cache-free scan — hits touch one atomic pointer and one counter, and
// never the disk. Guarded by cmd/allocguard in CI.
func BenchmarkSegCacheHit(b *testing.B) {
	db := dataset.Events(100_000)
	if err := db.EnableSpill(b.TempDir(), 1<<30); err != nil {
		b.Fatal(err)
	}
	sn := db.Snapshot()
	stmt := sql.MustParse("SELECT COUNT(*) FROM events WHERE level = 'error'")
	p, err := exec.BuildPlanParallelAt(sn, stmt, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := runAt(sn, p); err != nil { // build + adopt + warm
		b.Fatal(err)
	}
	base := db.SegCache().Stats()
	if base.SpilledSegs == 0 || base.SpillErrs != 0 {
		b.Fatalf("fixture: %d segments spilled (%d errors)", base.SpilledSegs, base.SpillErrs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runAt(sn, p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := db.SegCache().Stats(); st.Misses != base.Misses {
		b.Fatalf("warm benchmark faulted from disk: misses %d -> %d", base.Misses, st.Misses)
	}
}

// segBenchPlan compiles one query over a 100K-row event log and hands
// back a runner over the pinned snapshot and plan, warmed once outside
// the timed region.
func segBenchPlan(b *testing.B, query string) func() (*exec.Result, error) {
	b.Helper()
	db := dataset.Events(100_000)
	sn := db.Snapshot()
	stmt := sql.MustParse(query)
	p, err := exec.BuildPlanParallelAt(sn, stmt, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := runAt(sn, p); err != nil {
		b.Fatal(err)
	}
	return func() (*exec.Result, error) { return runAt(sn, p) }
}

// BenchmarkSegScanDictFilter pins the allocation budget of the
// decode-free scan path: a dictionary-equality filter plus count over
// every segment (no zone skipping), where text batches are views of
// dictionary codes and int batches decode per batch. Guarded by
// cmd/allocguard in CI.
func BenchmarkSegScanDictFilter(b *testing.B) {
	run := segBenchPlan(b, "SELECT COUNT(*) FROM events WHERE level = 'error'")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegScanZoneSkip measures the selective clustered-predicate
// scan — most segments are skipped from zone maps alone, so allocs/op
// must stay far below the full-scan budget.
func BenchmarkSegScanZoneSkip(b *testing.B) {
	run := segBenchPlan(b,
		"SELECT COUNT(*) FROM events WHERE ts BETWEEN 1700006000 AND 1700006250")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}
