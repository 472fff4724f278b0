package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/store"
)

// SegQuery is one probe of the compressed-segment experiment (F11): a
// query over the telemetry log timed on the segment layout (zone-map
// skipping live) at one worker degree. Rows/s figures use the table's
// row count — the work a full scan would touch — so skipping shows up
// as throughput, not as a smaller denominator.
type SegQuery struct {
	Name      string
	Par       int
	Rows      int           // table rows the scan is over
	Seg       time.Duration // segment layout, zone maps live
	SegN      int64         // segments decoded (per run)
	SegSkip   int64         // segments skipped by zone maps (per run)
	OutRows   int           // result cardinality
	SkipRatio float64       // SegSkip / (SegN + SegSkip)
}

// RowsPerSec is table rows over segment-path time.
func (q SegQuery) RowsPerSec() float64 {
	if q.Seg <= 0 {
		return 0
	}
	return float64(q.Rows) / q.Seg.Seconds()
}

// SegFootprint compares one table's segment footprint with the same
// rows plain-encoded.
type SegFootprint struct {
	Rows          int
	SegBytes      int // compressed segment layout
	PlainBytes    int // the same rows plain-encoded
	SegPerRow     float64
	PlainPerRow   float64
	Compression   float64 // PlainBytes / SegBytes
	Segments      int
	SealedRatio   float64 // sealed segments / total
	EncodingCount map[string]int
}

// MeasureSegFootprint reports the named table's segment footprint. The
// table is pinned to one snapshot so row count, segment bytes and plain
// bytes all describe the same version even while writers publish
// (snappin: the unpinned Table accessors would pin a fresh version per
// call).
func MeasureSegFootprint(db *store.DB, table string) SegFootprint {
	t := db.Table(table).Snap()
	ss := t.Segments()
	f := SegFootprint{
		Rows:          t.Len(),
		SegBytes:      ss.Bytes(),
		PlainBytes:    ss.PlainBytes(),
		Segments:      len(ss.Segs),
		EncodingCount: map[string]int{},
	}
	if f.Rows > 0 {
		f.SegPerRow = float64(f.SegBytes) / float64(f.Rows)
		f.PlainPerRow = float64(f.PlainBytes) / float64(f.Rows)
	}
	if f.SegBytes > 0 {
		f.Compression = float64(f.PlainBytes) / float64(f.SegBytes)
	}
	sealed := 0
	for _, seg := range ss.Segs {
		if seg.Sealed {
			sealed++
		}
		for _, c := range seg.MustCols() {
			f.EncodingCount[c.Enc.String()]++
		}
	}
	if len(ss.Segs) > 0 {
		f.SealedRatio = float64(sealed) / float64(len(ss.Segs))
	}
	return f
}

// MeasureSegQuery times one query over the segment layout at worker
// degree par, taking the minimum over reps. The result must match a
// serial run of the same statement row for row and the reference
// oracle as a bag — neither the skip logic nor the parallel rewrite
// may change results. Counters come from a dedicated counted run so
// the timed loop stays untouched.
func MeasureSegQuery(db *store.DB, table, name, query string, par, reps int) (SegQuery, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return SegQuery{}, err
	}
	sn := db.Snapshot()
	p, err := exec.BuildPlanParallelAt(sn, stmt, par)
	if err != nil {
		return SegQuery{}, err
	}

	segRes, err := runPlan(sn, p) // warm-up
	if err != nil {
		return SegQuery{}, err
	}
	var c store.SegCounters
	if _, err := exec.RunBoundCountedAtCtx(context.Background(), sn, p, nil, 0, &c, nil); err != nil {
		return SegQuery{}, err
	}
	// Per-mode time is the minimum over reps, not the mean: the first
	// query after a dataset build otherwise absorbs a GC cycle over the
	// fresh heap and reads 5-10x slower than steady state.
	seg, err := minPlanTime(sn, p, reps, nil)
	if err != nil {
		return SegQuery{}, err
	}

	serial, err := exec.QueryAt(sn, stmt)
	if err != nil {
		return SegQuery{}, err
	}
	if err := sameRows(segRes, serial); err != nil {
		return SegQuery{}, fmt.Errorf("bench: %q at par %d vs serial: %w", name, par, err)
	}
	ref, err := exec.ReferenceQueryAt(sn, stmt)
	if err != nil {
		return SegQuery{}, err
	}
	if !SameResult(segRes, ref) {
		return SegQuery{}, fmt.Errorf("bench: segment path diverges from the reference oracle for %q", name)
	}

	out := SegQuery{
		Name: name, Par: par,
		Rows:    sn.Table(table).Len(),
		Seg:     seg,
		SegN:    c.Scanned.Load(),
		SegSkip: c.Skipped.Load(),
		OutRows: len(segRes.Rows),
	}
	if total := out.SegN + out.SegSkip; total > 0 {
		out.SkipRatio = float64(out.SegSkip) / float64(total)
	}
	return out, nil
}

// sameRows reports the first row-for-row difference between two
// results, or nil when they are identical in order.
func sameRows(got, want *exec.Result) error {
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for r := range got.Rows {
		if !RowsEqual(got.Rows[r], want.Rows[r]) {
			return fmt.Errorf("row %d diverges", r)
		}
	}
	return nil
}
