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
// skipping live) and on the uncompressed column vectors, at one worker
// degree. Rows/s figures use the table's row count — the work a full
// scan would touch — so skipping shows up as throughput, not as a
// smaller denominator.
type SegQuery struct {
	Name      string
	Par       int
	Rows      int           // table rows the scan is over
	Seg       time.Duration // segment layout, zone maps live
	NoSeg     time.Duration // uncompressed column vectors
	SegN      int64         // segments decoded (per run)
	SegSkip   int64         // segments skipped by zone maps (per run)
	OutRows   int           // result cardinality
	SkipRatio float64       // SegSkip / (SegN + SegSkip)
}

// Factor is NoSeg/Seg (>1 means the segment layout won).
func (q SegQuery) Factor() float64 {
	if q.Seg <= 0 {
		return 0
	}
	return float64(q.NoSeg) / float64(q.Seg)
}

// RowsPerSec is table rows over segment-path time.
func (q SegQuery) RowsPerSec() float64 {
	if q.Seg <= 0 {
		return 0
	}
	return float64(q.Rows) / q.Seg.Seconds()
}

// SegFootprint compares the storage footprints of one table's two
// columnar layouts.
type SegFootprint struct {
	Rows          int
	SegBytes      int // compressed segment layout
	ColBytes      int // uncompressed column vectors
	SegPerRow     float64
	ColPerRow     float64
	Compression   float64 // ColBytes / SegBytes
	Segments      int
	SealedRatio   float64 // sealed segments / total
	EncodingCount map[string]int
}

// MeasureSegFootprint builds both layouts of the named table and
// reports their footprints. The table is pinned to one snapshot so
// row count, segment bytes and column-vector bytes all describe the
// same version even while writers publish (snappin: the unpinned
// Table accessors would pin a fresh version per call).
func MeasureSegFootprint(db *store.DB, table string) SegFootprint {
	t := db.Table(table).Snap()
	ss := t.Segments()
	f := SegFootprint{
		Rows:          t.Len(),
		SegBytes:      ss.Bytes(),
		ColBytes:      store.ColVecsBytes(t.ColVecs()),
		Segments:      len(ss.Segs),
		EncodingCount: map[string]int{},
	}
	if f.Rows > 0 {
		f.SegPerRow = float64(f.SegBytes) / float64(f.Rows)
		f.ColPerRow = float64(f.ColBytes) / float64(f.Rows)
	}
	if f.SegBytes > 0 {
		f.Compression = float64(f.ColBytes) / float64(f.SegBytes)
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

// MeasureSegQuery times one query over the segment layout and the
// uncompressed column-vector layout at worker degree par, averaging
// over reps. The two layouts must agree row for row, and both must
// match the reference oracle as a bag — the skip logic must never
// change results. Counters come from a dedicated counted run so the
// timed loops stay untouched.
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

	// Per-mode time is the minimum over reps, not the mean: the first
	// query after a dataset build otherwise absorbs a GC cycle over the
	// fresh heap and reads 5-10x slower than steady state.
	minOver := func(run func() (*exec.Result, error)) (time.Duration, error) {
		best := time.Duration(-1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if _, err := run(); err != nil {
				return 0, err
			}
			if d := time.Since(start); best < 0 || d < best {
				best = d
			}
		}
		return best, nil
	}

	segRes, err := runPlan(sn, p) // warm-up: forces segment build
	if err != nil {
		return SegQuery{}, err
	}
	var c store.SegCounters
	if _, err := exec.RunBoundCountedAtCtx(context.Background(), sn, p, nil, 0, &c, nil); err != nil {
		return SegQuery{}, err
	}
	seg, err := minOver(func() (*exec.Result, error) { return runPlan(sn, p) })
	if err != nil {
		return SegQuery{}, err
	}

	noSegRes, err := exec.RunNoSegAt(sn, p) // warm-up: forces colvec build
	if err != nil {
		return SegQuery{}, err
	}
	noSeg, err := minOver(func() (*exec.Result, error) { return exec.RunNoSegAt(sn, p) })
	if err != nil {
		return SegQuery{}, err
	}

	if len(segRes.Rows) != len(noSegRes.Rows) {
		return SegQuery{}, fmt.Errorf("bench: segment path returned %d rows, no-segment path %d for %q",
			len(segRes.Rows), len(noSegRes.Rows), name)
	}
	for r := range segRes.Rows {
		if !RowsEqual(segRes.Rows[r], noSegRes.Rows[r]) {
			return SegQuery{}, fmt.Errorf("bench: segment row %d diverges from no-segment path for %q", r, name)
		}
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
		Rows: sn.Table(table).Len(),
		Seg:  seg, NoSeg: noSeg,
		SegN:    c.Scanned.Load(),
		SegSkip: c.Skipped.Load(),
		OutRows: len(segRes.Rows),
	}
	if total := out.SegN + out.SegSkip; total > 0 {
		out.SkipRatio = float64(out.SegSkip) / float64(total)
	}
	return out, nil
}
