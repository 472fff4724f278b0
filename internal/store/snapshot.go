package store

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/schema"
)

// This file is the snapshot-isolation core of the store. A Table is a
// mutable handle whose contents live in immutable tableData versions:
// writers build the next version copy-on-write under the table's write
// lock and publish it with one atomic pointer store; readers pin a
// version (TableSnap, or a whole-database Snapshot) and see it frozen
// — segments, hash and ordered indexes and statistics all describe the
// same instant, with no locks on the read path.
//
// A version's rows are its segment set and nothing else: sealed
// compressed segments plus one plain tail (segment.go). Copy-on-write
// is chunk-grained, not wholesale:
//
//   - sealed segments are shared by pointer; the tail's typed column
//     slices append in place — a published slice is only ever extended
//     past its length, which readers of the shorter header never see —
//     and a full tail seals at publish;
//   - hash indexes clone the outer map (shallow) and copy only the
//     per-key id slices the new rows touch;
//   - ordered indexes merge the sorted new ids into the old run,
//     locating each by binary search instead of re-sorting;
//   - statistics carry over incrementally when the previous version had
//     them computed (see extendStats).
//
// Everything that reads cell values — index builds, range lookups,
// statistics, row materialization — reads them back out of the
// segments, faulting spilled payloads in through the segment cache and
// returning the fault's error rather than panicking.
//
// Writers to one table serialize on wmu; writers to different tables
// are independent. Version numbers are per table and bump only on row
// mutations — index DDL republishes the same data under the same
// version, so caches keyed on versions stay valid.

// tableData is one immutable version of a table's contents. Everything
// reachable from it is frozen at publish time except the statistics
// cache, which is guarded and only ever moves from empty to computed.
type tableData struct {
	segs    *SegSet                     // the rows: sealed segments, then at most one plain tail
	hash    map[string]map[string][]int // column -> value key -> row ids
	ord     map[string][]int            // column -> row ids sorted by value
	version uint64
	segRows int // seal boundary for the segment layout (0 = default)
	stats   *statsCache
}

// statsCache holds the lazily computed per-column statistics of one
// data version. Index-only republishes share the cache of the version
// they mirror (same rows, same stats); row mutations allocate a fresh
// one, pre-seeded incrementally where possible.
type statsCache struct {
	mu sync.Mutex
	m  map[string]ColStats
}

func emptyData(segRows int) *tableData {
	return &tableData{segs: &SegSet{}, segRows: segRows, stats: &statsCache{}}
}

// TableSnap is a pinned, immutable view of one table version. All read
// accessors of Table exist here too; a query that resolves its tables
// once through a Snapshot sees segments, indexes and stats that are
// mutually consistent for its whole plan, regardless of concurrent
// writers.
//
// For a partitioned table the pinned state is a whole partSet — one
// immutable version per partition, captured by a single atomic load,
// so every partition is observed at the same instant. d is set for
// single-partition views (unpartitioned tables, and the per-partition
// views Part returns): the fast path every accessor takes. When d is
// nil the accessors serve the merged canonical view (partitions
// concatenated in order), row-for-row identical to an unpartitioned
// table with the same contents.
type TableSnap struct {
	Meta   *schema.Table
	colIdx map[string]int
	ps     *partSet
	d      *tableData // single-partition data, nil for a merged multi-partition view
	spill  *SegCache  // segment cache adopting sealed segments, or nil
}

// Snap pins the table's current version.
func (t *Table) Snap() *TableSnap {
	ps := t.pset.Load()
	s := &TableSnap{Meta: t.Meta, colIdx: t.colIdx, ps: ps, spill: t.spill.Load()}
	if len(ps.datas) == 1 {
		s.d = ps.datas[0]
	}
	return s
}

// Version returns the data version this snapshot was pinned at.
func (s *TableSnap) Version() uint64 { return s.ps.version }

// Scheme returns the partitioning scheme of the pinned table.
func (s *TableSnap) Scheme() PartScheme { return s.ps.layout.scheme }

// NumParts returns the number of partition streams in this view: 1 for
// unpartitioned tables and for the single-partition views Part returns.
func (s *TableSnap) NumParts() int {
	if s.d != nil {
		return 1
	}
	return len(s.ps.datas)
}

// Part returns the pinned view of partition i alone. It behaves
// exactly like an unpartitioned table holding just that partition's
// rows (partition-local ids), which is what lets every read path —
// scans, segment iteration, index probes — run per-partition without
// partition-specific code.
func (s *TableSnap) Part(i int) *TableSnap {
	if s.d != nil {
		if i != 0 {
			panic("store: Part on a single-partition view")
		}
		return s
	}
	return &TableSnap{Meta: s.Meta, colIdx: s.colIdx, ps: s.ps, d: s.ps.datas[i], spill: s.spill}
}

// PartStart returns the global row offset of partition i in the
// canonical (concatenated) order; PartStart(NumParts()) is the total
// row count.
func (s *TableSnap) PartStart(i int) int { return s.ps.cum[i] }

// data0 is the representative tableData for properties uniform across
// partitions (index DDL set, seal boundary).
func (s *TableSnap) data0() *tableData {
	if s.d != nil {
		return s.d
	}
	return s.ps.datas[0]
}

// ColIndex returns the position of the named column, or -1.
func (s *TableSnap) ColIndex(name string) int {
	if i, ok := s.colIdx[name]; ok {
		return i
	}
	return -1
}

// Len returns the row count.
func (s *TableSnap) Len() int {
	if s.d != nil {
		return s.d.segs.N
	}
	return s.ps.totalRows()
}

// ReadRows materializes rows [lo, hi) of the snapshot (canonical order:
// partitions concatenated) out of its segments, faulting spilled
// payloads back in. It is the one row reader: Rows, Row and the
// reference oracle all go through it, and a payload that cannot be
// faulted in is its error, never a panic.
func (s *TableSnap) ReadRows(lo, hi int) ([]Row, error) {
	if lo < 0 || hi > s.Len() || lo > hi {
		return nil, fmt.Errorf("store: table %s: rows [%d, %d) out of range [0, %d)", s.Meta.Name, lo, hi, s.Len())
	}
	return s.Segments().readRows(len(s.Meta.Columns), lo, hi)
}

// Rows materializes every row of the snapshot, panicking when a
// spilled payload cannot be faulted in — the MustCols of rows, for
// tests, benchmarks and tools over known-readable data. Each call
// builds a fresh copy; callers may keep it.
func (s *TableSnap) Rows() []Row {
	rows, err := s.ReadRows(0, s.Len())
	if err != nil {
		panic(err)
	}
	return rows
}

// Row materializes row i, panicking like Rows on a fault failure.
func (s *TableSnap) Row(i int) Row {
	rows, err := s.ReadRows(i, i+1)
	if err != nil {
		panic(err)
	}
	return rows[0]
}

// HasIndex reports whether the column has a hash index. Index DDL is
// table-wide, so partition 0 speaks for every partition.
func (s *TableSnap) HasIndex(col string) bool {
	_, ok := s.data0().hash[col]
	return ok
}

// LookupIndex returns the ids of rows whose column equals v, using the
// hash index. The second result is false when no index exists. On a
// merged view the per-partition probes concatenate, mapped to global
// ids — ascending, since partition-local ids ascend and partitions are
// visited in canonical order.
func (s *TableSnap) LookupIndex(col string, v Value) ([]int, bool) {
	if s.d != nil {
		idx, ok := s.d.hash[col]
		if !ok {
			return nil, false
		}
		return idx[v.Key()], true
	}
	if _, ok := s.data0().hash[col]; !ok {
		return nil, false
	}
	k := v.Key()
	var out []int
	for p, d := range s.ps.datas {
		ids := d.hash[col][k]
		if len(ids) == 0 {
			continue
		}
		base := s.ps.cum[p]
		if out == nil {
			out = make([]int, 0, len(ids))
		}
		for _, id := range ids {
			out = append(out, base+id)
		}
	}
	return out, true
}

// HasOrderedIndex reports whether the column has an ordered index.
func (s *TableSnap) HasOrderedIndex(col string) bool {
	_, ok := s.data0().ord[col]
	return ok
}

// LookupRange returns the ids of rows whose column value lies between
// lo and hi (either bound may be nil for unbounded), honoring bound
// inclusivity, in ascending value order. NULL cells never match. The
// second result is false when the column has no ordered index. The
// binary searches read the probed cells out of the segments, so the
// error is a failed fault-in. On a merged view the per-partition runs
// merge by (value, global id), so the result is ascending by value
// with deterministic tie order.
func (s *TableSnap) LookupRange(col string, lo, hi *Value, loIncl, hiIncl bool) ([]int, bool, error) {
	if _, ok := s.data0().ord[col]; !ok {
		return nil, false, nil
	}
	ci := s.colIdx[col]
	if s.d != nil {
		ids, err := s.d.lookupRange(col, ci, lo, hi, loIncl, hiIncl)
		return ids, true, err
	}
	type hit struct {
		v  Value
		id int
	}
	var hits []hit
	for p, d := range s.ps.datas {
		ids, err := d.lookupRange(col, ci, lo, hi, loIncl, hiIncl)
		if err != nil {
			return nil, true, err
		}
		for _, id := range ids {
			v, err := d.segs.valueAt(ci, id)
			if err != nil {
				return nil, true, err
			}
			hits = append(hits, hit{v, s.ps.cum[p] + id})
		}
	}
	sort.Slice(hits, func(a, b int) bool {
		c := Compare(hits[a].v, hits[b].v)
		return c < 0 || (c == 0 && hits[a].id < hits[b].id)
	})
	var out []int
	for _, h := range hits {
		out = append(out, h.id)
	}
	return out, true, nil
}

// lookupRange is LookupRange over one partition's ordered index.
func (d *tableData) lookupRange(col string, ci int, lo, hi *Value, loIncl, hiIncl bool) ([]int, error) {
	ids := d.ord[col]
	var err error
	val := func(i int) Value {
		v, e := d.segs.valueAt(ci, ids[i])
		if e != nil && err == nil {
			err = e
		}
		return v
	}

	// Start: skip NULLs (which sort first), then apply the low bound.
	start := sort.Search(len(ids), func(i int) bool { return !val(i).IsNull() })
	if lo != nil {
		start = sort.Search(len(ids), func(i int) bool {
			v := val(i)
			if v.IsNull() {
				return false
			}
			c := Compare(v, *lo)
			if loIncl {
				return c >= 0
			}
			return c > 0
		})
	}
	end := len(ids)
	if hi != nil {
		end = sort.Search(len(ids), func(i int) bool {
			v := val(i)
			if v.IsNull() {
				return false
			}
			c := Compare(v, *hi)
			if hiIncl {
				return c > 0
			}
			return c >= 0
		})
	}
	if err != nil {
		return nil, err
	}
	if start >= end {
		return nil, nil
	}
	return ids[start:end], nil
}

// Stats returns the (lazily computed, cached) statistics for the named
// column at this snapshot. The second result is false when the column
// does not exist. The cache lives on the pinned version, so a snapshot's
// stats always describe exactly its rows — writers never invalidate
// them, they publish new versions with their own caches (seeded
// incrementally when the previous version had stats computed).
func (s *TableSnap) Stats(col string) (ColStats, bool) {
	ci := s.ColIndex(col)
	if ci < 0 {
		return ColStats{}, false
	}
	if s.d == nil {
		return s.mergedStats(col), true
	}
	c := s.d.stats
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.m[col]; ok {
		return st, true
	}
	st, err := computeStats(s.d.segs, ci)
	if err != nil {
		// A payload that cannot be faulted in leaves the planner the
		// resident zone maps' summary (distinct bounded by the non-NULL
		// count), uncached so a later call can compute exact statistics.
		z := s.d.segs.zone(ci)
		return ColStats{Rows: z.Rows, Nulls: z.Nulls, Distinct: z.Rows - z.Nulls, Min: z.Min, Max: z.Max}, true
	}
	if c.m == nil {
		c.m = make(map[string]ColStats, len(s.Meta.Columns))
	}
	c.m[col] = st
	return st, true
}

// mergedStats merges the per-partition statistics of one column. Row
// and NULL counts and min/max merge exactly; the distinct count is the
// sum capped at the non-NULL row count — exact for the hash partition
// column (whose value sets are disjoint by routing), an upper-bound
// estimate otherwise, which is the planner's tolerance anyway.
func (s *TableSnap) mergedStats(col string) ColStats {
	m := s.ps.merged
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.stats[col]; ok {
		return st
	}
	var st ColStats
	for p := range s.ps.datas {
		pst, _ := s.Part(p).Stats(col)
		st.Rows += pst.Rows
		st.Nulls += pst.Nulls
		st.Distinct += pst.Distinct
		if st.Min.IsNull() || (!pst.Min.IsNull() && Compare(pst.Min, st.Min) < 0) {
			st.Min = pst.Min
		}
		if st.Max.IsNull() || (!pst.Max.IsNull() && Compare(pst.Max, st.Max) > 0) {
			st.Max = pst.Max
		}
	}
	if nn := st.Rows - st.Nulls; st.Distinct > nn {
		st.Distinct = nn
	}
	if m.stats == nil {
		m.stats = make(map[string]ColStats, len(s.Meta.Columns))
	}
	m.stats[col] = st
	return st
}

// Zone merges the named column's per-segment zone maps over the view:
// row and NULL counts plus the value range (NULL when every cell is
// NULL, or unknown because a NaN is present). It reads only resident
// metadata, so pruning decisions built on it never fault a segment in.
// The second result is false when the column does not exist.
func (s *TableSnap) Zone(col string) (ZoneMap, bool) {
	ci := s.ColIndex(col)
	if ci < 0 {
		return ZoneMap{}, false
	}
	return s.Segments().zone(ci), true
}

// Segments returns the snapshot's segment layout: sealed compressed
// segments covering full chunks of the row set plus at most one plain
// tail, built as rows were published.
func (s *TableSnap) Segments() *SegSet {
	if s.d == nil {
		return s.mergedSegments()
	}
	// Under a spill-enabled store, hand any not-yet-adopted sealed
	// segments to the segment cache (write-once serialization + byte
	// budget). Adoption is idempotent per segment, so doing it here —
	// the one funnel every reader passes through — keeps the write path
	// free of disk I/O.
	if s.spill != nil {
		s.spill.adopt(s.d.segs)
	}
	return s.d.segs
}

// mergedSegments concatenates the per-partition segment layouts in
// canonical order: the same *Segment values (so segment-cache identity
// and adoption are shared with per-partition readers) under global
// start offsets. Each partition contributes its own seal boundary and
// at most one unsealed tail; Locate is a binary search over starts, so
// unsealed segments mid-stream are harmless.
func (s *TableSnap) mergedSegments() *SegSet {
	m := s.ps.merged
	m.mu.Lock()
	if m.segs == nil {
		var segs []*Segment
		for _, d := range s.ps.datas {
			segs = append(segs, d.segs.Segs...)
		}
		m.segs = newSegSet(segs)
	}
	ss := m.segs
	m.mu.Unlock()
	if s.spill != nil {
		s.spill.adopt(ss)
	}
	return ss
}

// SegmentRows returns the snapshot's seal boundary (rows per sealed
// segment).
func (s *TableSnap) SegmentRows() int {
	if sr := s.data0().segRows; sr > 0 {
		return sr
	}
	return DefaultSegmentRows
}

// Snapshot is a pinned, immutable view of the whole database: one
// TableSnap per table, each at the version current when Snapshot() was
// called. Queries (planning and execution) resolve tables through one
// Snapshot so every access — scans, index probes, stats, column
// vectors — observes the same instant.
type Snapshot struct {
	Schema *schema.Schema
	tables map[string]*TableSnap
}

// Snapshot pins the current version of every table. The tables are
// pinned one after another (each atomically); a writer racing with the
// pin may land in either side, but once returned the view is frozen.
func (db *DB) Snapshot() *Snapshot {
	s := &Snapshot{Schema: db.Schema, tables: make(map[string]*TableSnap, len(db.tables))}
	for name, t := range db.tables {
		s.tables[name] = t.Snap()
	}
	return s
}

// Table returns the pinned view of the named table, or nil.
func (s *Snapshot) Table(name string) *TableSnap { return s.tables[name] }

// Version sums the pinned per-table versions — the whole-database data
// version this snapshot observes.
func (s *Snapshot) Version() uint64 {
	var v uint64
	for _, t := range s.tables {
		v += t.ps.version
	}
	return v
}

// TableVersion returns the pinned version of the named table, or 0.
func (s *Snapshot) TableVersion(name string) uint64 {
	if t := s.tables[name]; t != nil {
		return t.ps.version
	}
	return 0
}

// ---- write path ----

// publishRows appends validated rows as the table's next version. On a
// partitioned table the batch routes per partition first, then each
// per-partition chunk publishes independently under that partition's
// writer lock — concurrent loaders overlap on disjoint partitions and
// pipeline across shared ones (the starting partition rotates per
// batch to break convoys). Each chunk is atomic: a reader's snapshot
// sees all of a partition's chunk or none of it. A racing repartition
// invalidates the routing; unpublished chunks re-route under the new
// layout and continue.
func (t *Table) publishRows(rows []Row) error {
	pending := rows
	for len(pending) > 0 {
		ps := t.pset.Load()
		layout := ps.layout
		n := len(layout.locks)
		if n == 1 {
			if ok, err := t.publishPart(layout, 0, pending); ok || err != nil {
				return err
			}
			continue
		}
		// Route once, count, then fill exactly-sized per-partition
		// slices: allocations stay constant in the batch size.
		ci := layout.scheme.Ci
		kind := KindOfColType(t.Meta.Columns[ci].Type)
		routes := make([]int32, len(pending))
		counts := make([]int, n)
		var buf []byte
		var p int
		for i, row := range pending {
			p, buf = layout.scheme.routeKey(widen(row[ci], kind), buf)
			routes[i] = int32(p)
			counts[p]++
		}
		parts := make([][]Row, n)
		for p, c := range counts {
			if c > 0 {
				parts[p] = make([]Row, 0, c)
			}
		}
		for i, row := range pending {
			parts[routes[i]] = append(parts[routes[i]], row)
		}
		start := int(t.ticket.Add(1) % uint64(n))
		var leftover []Row
		for off := 0; off < n; off++ {
			p := (start + off) % n
			if len(parts[p]) == 0 {
				continue
			}
			if leftover == nil {
				ok, err := t.publishPart(layout, p, parts[p])
				if err != nil {
					return err
				}
				if ok {
					continue
				}
			}
			leftover = append(leftover, parts[p]...)
		}
		pending = leftover
	}
	return nil
}

// widen returns a cell as its column stores it: INT values in FLOAT
// columns widen to FLOAT.
func widen(v Value, kind Kind) Value {
	if kind == KindFloat && v.Kind() == KindInt {
		return Float(float64(v.Int64()))
	}
	return v
}

// publishPart publishes rows into partition p of the given layout. It
// returns false without publishing when the table was repartitioned
// since the caller routed (layout identity changed) — the rows would
// land in the wrong stream. Lock order is always partition lock first,
// pubMu last: the copy-on-write work happens under the partition lock
// alone, pubMu is held only to swap the partSet pointer.
func (t *Table) publishPart(layout *partLayout, p int, rows []Row) (bool, error) {
	mu := &layout.locks[p]
	mu.Lock()
	defer mu.Unlock()
	ps := t.pset.Load()
	if ps.layout != layout {
		return false, nil
	}
	// Holding locks[p] pins the layout (a repartition needs every
	// partition lock) and freezes datas[p]; other partitions may
	// publish concurrently, so reload the latest set under pubMu.
	next, err := buildNext(t.Meta, t.colIdx, ps.datas[p], rows)
	if err != nil {
		return false, err
	}
	t.pubMu.Lock()
	cur := t.pset.Load()
	datas := make([]*tableData, len(cur.datas))
	copy(datas, cur.datas)
	datas[p] = next
	t.pset.Store(newPartSet(layout, datas, cur.version+1))
	t.pubMu.Unlock()
	return true, nil
}

// buildNext appends rows to one partition stream copy-on-write: the
// segment set extends (sealing full tails), indexes are maintained
// incrementally, statistics carry over from the previous version when
// computed there. Row ids are partition-local. Index and statistics
// maintenance read the new cells back from the new segments, so they
// see exactly the stored (widened) values.
func buildNext(meta *schema.Table, colIdx map[string]int, cur *tableData, rows []Row) (*tableData, error) {
	base := cur.segs.N
	next := &tableData{
		segs:    appendSegs(meta, cur.segs, rows, cur.segRows),
		version: cur.version + 1,
		ord:     cur.ord,
		segRows: cur.segRows,
	}
	newVals := func(ci int) ([]Value, error) {
		vals := make([]Value, 0, len(rows))
		err := next.segs.scanCol(ci, base, next.segs.N, func(_ int, v Value) { vals = append(vals, v) })
		return vals, err
	}

	// Hash indexes: shallow-clone the outer map, copy-and-extend only
	// the id slices the new rows' keys touch.
	if len(cur.hash) > 0 {
		next.hash = make(map[string]map[string][]int, len(cur.hash))
		for col, idx := range cur.hash {
			vals, err := newVals(colIdx[col])
			if err != nil {
				return nil, err
			}
			add := make(map[string][]int)
			for i, v := range vals {
				k := v.Key()
				add[k] = append(add[k], base+i)
			}
			nidx := maps.Clone(idx)
			for k, ids := range add {
				nidx[k] = slices.Concat(nidx[k], ids) // a fresh slice: readers of idx keep theirs
			}
			next.hash[col] = nidx
		}
	}

	// Ordered indexes: sort only the new ids, then merge them into the
	// old sorted run.
	if len(cur.ord) > 0 {
		next.ord = make(map[string][]int, len(cur.ord))
		for col, ids := range cur.ord {
			ci := colIdx[col]
			vals, err := newVals(ci)
			if err != nil {
				return nil, err
			}
			if next.ord[col], err = mergeOrdered(next.segs, ci, ids, base, vals); err != nil {
				return nil, err
			}
		}
	}

	stats, err := extendStats(colIdx, cur, next, len(rows), newVals)
	if err != nil {
		return nil, err
	}
	next.stats = &statsCache{m: stats}
	return next, nil
}

// mergeOrdered merges the new rows [base, base+len(vals)) into the old
// run of ids sorted by column value. Each new id finds its place by
// binary search over the old run's values, read from the segments —
// O(n) copying plus O(k log n) cell reads, so a small publish never
// decodes the whole column; when k log n would exceed a full read the
// run is rebuilt by sorting instead. Ties keep old ids first, matching
// what a stable re-sort over ascending ids would produce.
func mergeOrdered(ss *SegSet, ci int, old []int, base int, vals []Value) ([]int, error) {
	if len(vals)*bits.Len(uint(len(old))) > len(old)+len(vals) {
		return sortedIDs(ss, ci)
	}
	order := make([]int, len(vals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return Compare(vals[order[a]], vals[order[b]]) < 0 })
	out := make([]int, 0, len(old)+len(vals))
	var err error
	i := 0
	for _, k := range order {
		v := vals[k]
		j := i + sort.Search(len(old)-i, func(x int) bool {
			ov, e := ss.valueAt(ci, old[i+x])
			if e != nil && err == nil {
				err = e
			}
			return Compare(ov, v) > 0
		})
		if err != nil {
			return nil, err
		}
		out = append(out, old[i:j]...)
		out = append(out, base+k)
		i = j
	}
	return append(out, old[i:]...), nil
}

// extendStats seeds the next version's stats cache from the previous
// version's computed entries. Row, NULL and min/max summaries extend
// exactly from the new cells alone; the distinct count is carried only
// when the column has a hash index on the next version (its key count
// is the exact distinct count, minus the NULL key when present) —
// otherwise the entry is dropped and recomputed lazily on demand.
func extendStats(colIdx map[string]int, cur, next *tableData, added int, newVals func(int) ([]Value, error)) (map[string]ColStats, error) {
	cur.stats.mu.Lock()
	var seed map[string]ColStats
	if len(cur.stats.m) > 0 {
		seed = make(map[string]ColStats, len(cur.stats.m))
		for col, st := range cur.stats.m {
			seed[col] = st
		}
	}
	cur.stats.mu.Unlock()
	var out map[string]ColStats
	for col, st := range seed {
		idx, ok := next.hash[col]
		if !ok {
			continue // distinct not derivable incrementally; recompute lazily
		}
		vals, err := newVals(colIdx[col])
		if err != nil {
			return nil, err
		}
		st.Rows += added
		for _, v := range vals {
			if v.IsNull() {
				st.Nulls++
				continue
			}
			if st.Min.IsNull() || Compare(v, st.Min) < 0 {
				st.Min = v
			}
			if st.Max.IsNull() || Compare(v, st.Max) > 0 {
				st.Max = v
			}
		}
		st.Distinct = len(idx)
		if st.Nulls > 0 {
			st.Distinct-- // the NULL key's entry
		}
		if out == nil {
			out = make(map[string]ColStats, len(seed))
		}
		out[col] = st
	}
	return out, nil
}

// publishIndex republishes the current data with mutate applied to
// every partition's hash/ordered index maps, under all partition locks
// (index DDL is table-wide — each partition rebuilds over its own
// local row ids). The data version does not move (rows are unchanged)
// and the statistics cache is shared with the previous publication. A
// mutate error (a failed fault-in while reading cells) publishes
// nothing.
func (t *Table) publishIndex(mutate func(cur *tableData, next *tableData) error) error {
	layout := t.lockAll()
	defer unlockAll(layout)
	ps := t.pset.Load()
	datas := make([]*tableData, len(ps.datas))
	for i, cur := range ps.datas {
		next := &tableData{
			segs:    cur.segs,
			hash:    cur.hash,
			ord:     cur.ord,
			version: cur.version,
			segRows: cur.segRows,
			stats:   cur.stats,
		}
		if err := mutate(cur, next); err != nil {
			return err
		}
		datas[i] = next
	}
	t.pubMu.Lock()
	t.pset.Store(newPartSet(layout, datas, ps.version))
	t.pubMu.Unlock()
	return nil
}
