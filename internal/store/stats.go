package store

import "sort"

// ColStats summarizes one column for the query planner: row and NULL
// counts, the number of distinct non-NULL values, and the value range.
// Min/Max are NULL values when the column holds no non-NULL cells.
type ColStats struct {
	Rows     int
	Nulls    int
	Distinct int
	Min, Max Value
}

// Selectivity estimates the fraction of rows an equality predicate on
// this column keeps: 1/distinct, clamped to (0, 1].
func (s ColStats) Selectivity() float64 {
	if s.Rows == 0 {
		return 1
	}
	d := s.Distinct
	if d < 1 {
		d = 1
	}
	sel := 1.0 / float64(d)
	if sel > 1 {
		return 1
	}
	return sel
}

// computeStats scans one column of a segment layout for its
// statistics — the from-scratch path TableSnap.Stats takes when the
// snapshot's cache was not seeded incrementally by the writer.
func computeStats(ss *SegSet, ci int) (ColStats, error) {
	s := ColStats{Rows: ss.N}
	distinct := make(map[string]struct{})
	err := ss.scanCol(ci, 0, ss.N, func(_ int, v Value) {
		if v.IsNull() {
			s.Nulls++
			return
		}
		distinct[v.Key()] = struct{}{}
		if s.Min.IsNull() || Compare(v, s.Min) < 0 {
			s.Min = v
		}
		if s.Max.IsNull() || Compare(v, s.Max) > 0 {
			s.Max = v
		}
	})
	s.Distinct = len(distinct)
	return s, err
}

// sortedIDs returns the row ids of a segment layout sorted by column
// ci's value: NULLs first, store.Compare order, ties by ascending id.
func sortedIDs(ss *SegSet, ci int) ([]int, error) {
	vals := make([]Value, 0, ss.N)
	if err := ss.scanCol(ci, 0, ss.N, func(_ int, v Value) { vals = append(vals, v) }); err != nil {
		return nil, err
	}
	ids := make([]int, len(vals))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool { return Compare(vals[ids[a]], vals[ids[b]]) < 0 })
	return ids, nil
}

// hashIndex builds a hash index over column ci: value key -> row ids.
func hashIndex(ss *SegSet, ci int) (map[string][]int, error) {
	idx := make(map[string][]int)
	err := ss.scanCol(ci, 0, ss.N, func(id int, v Value) {
		k := v.Key()
		idx[k] = append(idx[k], id)
	})
	return idx, err
}

// withOrderedIndex returns cur's ordered-index map extended (copy-on-
// write) with a freshly built run for column ci.
func withOrderedIndex(cur *tableData, col string, ci int) (map[string][]int, error) {
	ids, err := sortedIDs(cur.segs, ci)
	if err != nil {
		return nil, err
	}
	return withEntry(cur.ord, col, ids), nil
}
