package store

import (
	"fmt"
	"testing"
)

// BenchmarkTailAppend pins O(batch) publish: an 8-row BulkInsert into
// a table whose tail already holds 1K rows, and one whose tail holds
// 60K. The tail's typed slices extend in place and only the batch is
// encoded, so allocs/op must not depend on the tail's length. One row
// in four has a NULL, so every publish also copies the tail's null
// bitmap. The table is rebuilt, untimed, before the tail
// could reach the seal boundary. Guarded by cmd/allocguard in CI.
func BenchmarkTailAppend(b *testing.B) {
	row := func(i int) Row {
		r := Row{Int(int64(i)), Int(int64(1700000000 + i/8)), Text(fmt.Sprintf("svc-%02d", i%24)), Float(float64(i%250) + 0.5)}
		if i%4 == 1 {
			r[3] = Null()
		}
		return r
	}
	for _, tc := range []struct {
		name string
		tail int
	}{{"tail1K", 1_000}, {"tail60K", 60_000}} {
		b.Run(tc.name, func(b *testing.B) {
			base := make([]Row, tc.tail)
			for i := range base {
				base[i] = row(i)
			}
			batch := make([]Row, 8)
			for i := range batch {
				batch[i] = row(tc.tail + i)
			}
			const rebuild = 512 // 60K + 512*8 rows stays under one segment
			var t *Table
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%rebuild == 0 {
					b.StopTimer()
					t = NewDB(loaderBenchSchema()).Table("events")
					if err := t.BulkInsert(base); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := t.BulkInsert(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if segs := t.Snap().Segments().Segs; len(segs) != 1 || segs[0].Sealed {
				b.Fatalf("tail sealed during the benchmark: %d segments", len(segs))
			}
		})
	}
}
