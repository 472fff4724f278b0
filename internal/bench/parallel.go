package bench

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/store"
)

// ParSpeedup is one serial-versus-parallel timing comparison for a
// query at a given worker degree (experiment F6).
type ParSpeedup struct {
	Name     string
	Par      int
	Serial   time.Duration // Parallelism 1
	Parallel time.Duration // Parallelism Par
}

// Factor is Serial/Parallel (>1 means the worker pool won).
func (s ParSpeedup) Factor() float64 {
	if s.Parallel <= 0 {
		return 0
	}
	return float64(s.Serial) / float64(s.Parallel)
}

// MeasureParallelSpeedup times one query through the serial plan and
// the parallel plan at degree par, averaging over reps. Both sides
// run prebuilt plans, so the factor isolates execution — neither side
// gets credit for skipped parsing or compilation. The final parallel
// rows are checked against the serial baseline: a speedup over wrong
// answers is no speedup.
func MeasureParallelSpeedup(db *store.DB, name, query string, par, reps int) (ParSpeedup, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return ParSpeedup{}, err
	}
	sn := db.Snapshot()
	sp, err := exec.BuildPlanParallelAt(sn, stmt, 1)
	if err != nil {
		return ParSpeedup{}, err
	}
	pp, err := exec.BuildPlanParallelAt(sn, stmt, par)
	if err != nil {
		return ParSpeedup{}, err
	}

	serialRes, err := runPlan(sn, sp) // warm-up and baseline rows
	if err != nil {
		return ParSpeedup{}, err
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := runPlan(sn, sp); err != nil {
			return ParSpeedup{}, err
		}
	}
	serial := time.Since(start) / time.Duration(reps)

	parRes, err := runPlan(sn, pp) // warm-up
	if err != nil {
		return ParSpeedup{}, err
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		if parRes, err = runPlan(sn, pp); err != nil {
			return ParSpeedup{}, err
		}
	}
	parallel := time.Since(start) / time.Duration(reps)

	if !SameResult(serialRes, parRes) {
		return ParSpeedup{}, fmt.Errorf("bench: parallel result diverges from serial for %q", name)
	}
	return ParSpeedup{Name: name, Par: par, Serial: serial, Parallel: parallel}, nil
}
