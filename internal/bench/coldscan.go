package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/store"
)

// ColdScan is one probe of the larger-than-memory experiment (F12):
// the same query timed cold (every sealed payload evicted, reads fault
// through the segment cache from disk), warm (payloads left resident
// by the previous run), and resident — a segment scan of the same data
// before spill was enabled, the execution the cache must match row for
// row.
type ColdScan struct {
	Name     string
	Par      int
	Rows     int           // table rows the scan is over
	Cold     time.Duration // EvictAll before each rep; min over reps
	Warm     time.Duration // cache state carried between reps
	Resident time.Duration // every payload resident, no cache in the loop
	ColdMiss int64         // segments faulted in per cold run
	ColdMB   float64       // bytes faulted from disk per cold run (MiB)
	WarmHit  float64       // warm-run hit ratio: hits / (hits + misses)
	Scanned  int64         // segments decoded by the scan (per run)
	Skipped  int64         // segments pruned by zone maps (per run)
	OutRows  int           // result cardinality
}

// ResidentScan is the baseline half of an F12 probe: the query's
// minimum time and result as a segment scan with spill disabled —
// every payload resident, no segment cache in the loop.
type ResidentScan struct {
	Time time.Duration
	Res  *exec.Result
}

// MeasureResidentScan times query at worker degree par on a store
// whose spill is not enabled yet, returning the baseline MeasureColdScan
// checks the read-through path against.
func MeasureResidentScan(db *store.DB, query string, par, reps int) (ResidentScan, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return ResidentScan{}, err
	}
	sn := db.Snapshot()
	p, err := exec.BuildPlanParallelAt(sn, stmt, par)
	if err != nil {
		return ResidentScan{}, err
	}
	res, err := runPlan(sn, p) // warm-up and the baseline rows
	if err != nil {
		return ResidentScan{}, err
	}
	best, err := minPlanTime(sn, p, reps, nil)
	return ResidentScan{Time: best, Res: res}, err
}

// ColdPenalty is Cold/Resident (>1 means faulting from disk cost that
// much over fully resident execution).
func (q ColdScan) ColdPenalty() float64 {
	if q.Resident <= 0 {
		return 0
	}
	return float64(q.Cold) / float64(q.Resident)
}

// ColdRowsPerSec is table rows over cold-path time: the sustained
// throughput of scanning a dataset that does not fit in memory.
func (q ColdScan) ColdRowsPerSec() float64 {
	if q.Cold <= 0 {
		return 0
	}
	return float64(q.Rows) / q.Cold.Seconds()
}

// MeasureColdScan times one query on a spill-enabled DB cold and warm
// and enforces the experiment's correctness bars in-run:
//
//   - the cold read-through result is row-for-row identical to the
//     resident segment scan measured before spill was enabled, and
//     bag-equal to the reference oracle reading the spilled store —
//     faulting segments back from disk must never change an answer;
//   - at par 1 with every segment sealed, the number of disk faults in
//     a cold run equals the number of segments the scan decoded: a
//     zone-pruned segment is skipped on its resident zone maps alone
//     and never touches disk.
//
// Timing details mirror MeasureSegQuery: per-mode time is the minimum
// over reps, counters come from a dedicated counted run so the timed
// loops stay untouched.
func MeasureColdScan(db *store.DB, table, name, query string, par, reps int, resident ResidentScan) (ColdScan, error) {
	cache := db.SegCache()
	if cache == nil {
		return ColdScan{}, fmt.Errorf("bench: F12 %q needs a spill-enabled DB (EnableSpill first)", name)
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return ColdScan{}, err
	}
	sn := db.Snapshot()
	p, err := exec.BuildPlanParallelAt(sn, stmt, par)
	if err != nil {
		return ColdScan{}, err
	}

	// Warm-up: funnels sealed segments into the cache (adoption spills
	// them to disk).
	if _, err := runPlan(sn, p); err != nil {
		return ColdScan{}, err
	}
	ss := sn.Table(table).Segments()
	allSealed := true
	for _, seg := range ss.Segs {
		if !seg.Sealed {
			allSealed = false
		}
	}

	// Counted cold run: evict everything, then record which segments the
	// scan decoded vs zone-pruned and how many faulted in from disk.
	// This is the run the correctness bars read, and its result is the
	// one compared against the resident baseline and the oracle — a
	// genuinely cold read-through execution.
	cache.EvictAll()
	before := cache.Stats()
	var ctr store.SegCounters
	coldRes, err := exec.RunBoundCountedAtCtx(context.Background(), sn, p, nil, 0, &ctr, nil)
	if err != nil {
		return ColdScan{}, err
	}
	after := cache.Stats()
	coldMiss := after.Misses - before.Misses
	coldMB := float64(after.FaultBytes-before.FaultBytes) / (1 << 20)
	scanned, skipped := ctr.Scanned.Load(), ctr.Skipped.Load()

	if err := sameRows(coldRes, resident.Res); err != nil {
		return ColdScan{}, fmt.Errorf("bench: F12 %q: cold read-through vs resident execution: %w", name, err)
	}
	ref, err := exec.ReferenceQueryAt(sn, stmt)
	if err != nil {
		return ColdScan{}, err
	}
	if !SameResult(coldRes, ref) {
		return ColdScan{}, fmt.Errorf("bench: F12 %q: cold read-through diverges from the reference oracle", name)
	}
	if par == 1 && allSealed && coldMiss != scanned {
		return ColdScan{}, fmt.Errorf("bench: F12 %q: %d disk faults for %d decoded segments — zone-pruned segments must skip on resident zone maps without I/O",
			name, coldMiss, scanned)
	}

	// Cold timing: evict before every rep so each one faults from disk.
	cold, err := minPlanTime(sn, p, reps, cache.EvictAll)
	if err != nil {
		return ColdScan{}, err
	}

	// Warm timing: cache state carries over from the last cold rep, so
	// whatever fits in budget is served from memory.
	w0 := cache.Stats()
	warm, err := minPlanTime(sn, p, reps, nil)
	if err != nil {
		return ColdScan{}, err
	}
	w1 := cache.Stats()
	warmHit := 0.0
	if acc := (w1.Hits - w0.Hits) + (w1.Misses - w0.Misses); acc > 0 {
		warmHit = float64(w1.Hits-w0.Hits) / float64(acc)
	}

	return ColdScan{
		Name: name, Par: par,
		Rows: sn.Table(table).Len(),
		Cold: cold, Warm: warm, Resident: resident.Time,
		ColdMiss: coldMiss, ColdMB: coldMB, WarmHit: warmHit,
		Scanned: scanned, Skipped: skipped,
		OutRows: len(coldRes.Rows),
	}, nil
}
