package store

import (
	"cmp"
	"errors"
	"slices"
	"sync/atomic"

	"repro/internal/schema"
)

// This file is the compressed segment layout of the store — the primary
// columnar representation the vectorized executor scans. A table
// version is covered by a run of immutable sealed segments (~64K rows
// each) whose columns are encoded per segment — dictionary codes for
// low-cardinality strings, run-length runs for sorted/clustered ints,
// frame-of-reference deltas for narrow-range ints — plus at most one
// plain-encoded mutable tail for the rows past the last seal boundary.
// Every sealed column carries a zone map (min/max + null count) the
// planner tests bound predicates against to skip whole segments.
//
// The segments are the table: a table version is exactly its segment
// set, built as rows are published, with no row-major copy beside it.
// MVCC composes: a publish hands the previous version's sealed segments
// to the next version by pointer (they are immutable) and appends the
// new rows to the tail's plain columns in place, sealing the tail when
// it reaches the segment size — appending rows never re-compresses
// sealed history, and never re-encodes the tail either.

// DefaultSegmentRows is the seal boundary: rows per sealed segment.
const DefaultSegmentRows = 64 * 1024

// SegEncoding discriminates the per-segment column encodings.
type SegEncoding uint8

const (
	// SegPlain stores the typed slice as-is (the tail's layout).
	SegPlain SegEncoding = iota
	// SegDict stores low-cardinality strings as codes into a
	// per-segment dictionary of distinct values.
	SegDict
	// SegRLE stores sorted/clustered ints as (value, end-offset) runs.
	SegRLE
	// SegFOR stores narrow-range ints frame-of-reference packed:
	// a base plus 8/16/32-bit unsigned deltas.
	SegFOR
)

func (e SegEncoding) String() string {
	switch e {
	case SegPlain:
		return "plain"
	case SegDict:
		return "dict"
	case SegRLE:
		return "rle"
	case SegFOR:
		return "for"
	}
	return "?"
}

// ZoneMap summarizes one segment column for predicate skipping: the
// non-NULL value range and the NULL count. Min/Max are NULL both for
// columns with no non-NULL cells and for columns whose range is not
// safely orderable (a float segment containing NaN) — the skip rule
// distinguishes the two through Nulls vs Rows.
type ZoneMap struct {
	Min, Max Value
	Nulls    int
	Rows     int
}

// AllNull reports a segment column with no non-NULL values — any
// comparison predicate is non-TRUE on every row, so bound predicates
// may skip the segment outright.
func (z ZoneMap) AllNull() bool { return z.Nulls == z.Rows }

// SegCol is one column of a segment. Exactly one encoding's slices are
// populated according to Enc; Nulls is the segment-local null bitmap
// (nil when the segment holds no NULLs in this column). NULL cells
// store the zero code/delta/value of their encoding.
type SegCol struct {
	Kind Kind
	Enc  SegEncoding
	Zone ZoneMap
	N    int
	Nuls Bitmap

	// SegPlain
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool

	// SegDict
	Codes []int32
	Dict  []string

	// SegRLE: value runs with ascending exclusive end offsets.
	RunVals []int64
	RunEnds []int32

	// SegFOR: value = Base + delta (exactly one delta width set).
	Base int64
	D8   []uint8
	D16  []uint16
	D32  []uint32
}

// IsNull reports whether row i (segment-local) is NULL.
func (c *SegCol) IsNull(i int) bool { return c.Nuls.Get(i) }

// NullMask materializes the null mask of rows [lo, hi) as a bool
// slice, or nil when the range holds no NULLs.
func (c *SegCol) NullMask(lo, hi int) []bool {
	if !c.Nuls.AnyRange(lo, hi) {
		return nil
	}
	mask := make([]bool, hi-lo)
	for i := range mask {
		mask[i] = c.Nuls.Get(lo + i)
	}
	return mask
}

// IntAt decodes the int64 cell at segment-local row i (undefined for
// NULL cells, which store encoding zeros).
func (c *SegCol) IntAt(i int) int64 {
	switch c.Enc {
	case SegPlain:
		return c.Ints[i]
	case SegRLE:
		return c.RunVals[c.runOf(i)]
	case SegFOR:
		switch {
		case c.D8 != nil:
			return int64(uint64(c.Base) + uint64(c.D8[i]))
		case c.D16 != nil:
			return int64(uint64(c.Base) + uint64(c.D16[i]))
		default:
			return int64(uint64(c.Base) + uint64(c.D32[i]))
		}
	}
	return 0
}

// runOf locates the RLE run covering row i by binary search over the
// ascending exclusive run ends.
func (c *SegCol) runOf(i int) int {
	lo, hi := 0, len(c.RunEnds)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if int(c.RunEnds[mid]) <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// StrAt decodes the string cell at segment-local row i.
func (c *SegCol) StrAt(i int) string {
	if c.Enc == SegDict {
		return c.Dict[c.Codes[i]]
	}
	return c.Strs[i]
}

// Value boxes segment-local row i back into a Value.
func (c *SegCol) Value(i int) Value {
	if c.Nuls.Get(i) {
		return Null()
	}
	switch c.Kind {
	case KindInt:
		return Int(c.IntAt(i))
	case KindFloat:
		return Float(c.Floats[i])
	case KindText:
		return Text(c.StrAt(i))
	case KindBool:
		return Bool(c.Bools[i])
	}
	return Null()
}

// DecodeInts materializes rows [lo, hi) of an int column into dst
// (reused when capacious enough).
func (c *SegCol) DecodeInts(lo, hi int, dst []int64) []int64 {
	n := hi - lo
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	switch c.Enc {
	case SegPlain:
		copy(dst, c.Ints[lo:hi])
	case SegRLE:
		r := c.runOf(lo)
		for i := lo; i < hi; {
			end := int(c.RunEnds[r])
			if end > hi {
				end = hi
			}
			v := c.RunVals[r]
			for ; i < end; i++ {
				dst[i-lo] = v
			}
			r++
		}
	case SegFOR:
		base := uint64(c.Base)
		switch {
		case c.D8 != nil:
			for i, d := range c.D8[lo:hi] {
				dst[i] = int64(base + uint64(d))
			}
		case c.D16 != nil:
			for i, d := range c.D16[lo:hi] {
				dst[i] = int64(base + uint64(d))
			}
		default:
			for i, d := range c.D32[lo:hi] {
				dst[i] = int64(base + uint64(d))
			}
		}
	}
	return dst
}

// Bytes is the resident data footprint of the encoded column: slice
// contents plus string headers and bytes. For a plain column this is
// the uncompressed footprint SegSet.PlainBytes reports.
func (c *SegCol) Bytes() int {
	b := len(c.Ints)*8 + len(c.Floats)*8 + len(c.Bools) + len(c.Nuls)*8
	for _, s := range c.Strs {
		b += 16 + len(s)
	}
	b += len(c.Codes) * 4
	for _, s := range c.Dict {
		b += 16 + len(s)
	}
	b += len(c.RunVals)*8 + len(c.RunEnds)*4
	b += len(c.D8) + len(c.D16)*2 + len(c.D32)*4
	return b
}

// Segment is one immutable run of table rows with per-column encodings
// and zone maps. Sealed segments never change and are shared by
// pointer across table versions; the single unsealed tail segment is
// plain-encoded, and each publish wraps its in-place-extended columns
// in a new Segment.
//
// The struct splits into an always-resident identity — row count,
// seal flag and per-column zone maps — and a faultable payload (the
// encoded columns). On a memory-only store the payload never leaves;
// under a spill-enabled store (DB.EnableSpill) sealed segments are
// serialized write-once to disk and the segment cache may drop the
// payload under byte-budget pressure, leaving the zone maps behind so
// the planner's skip predicates keep pruning without I/O. Readers go
// through Cols or ColsFor, which fault an evicted payload back in
// through the cache — ColsFor only the columns a scan reads.
type Segment struct {
	N      int
	Sealed bool

	// Zones holds one zone map per column. It is populated at encode
	// time and never evicted: segment skipping must stay a pure
	// in-memory test whatever the cache does to the payload.
	Zones []ZoneMap

	bytes int                        // payload footprint, fixed at encode time
	plain int                        // footprint of the same rows plain-encoded
	ref   atomic.Bool                // CLOCK reference bit (second chance)
	src   atomic.Pointer[segSrc]     // spill identity; nil until adopted
	pay   atomic.Pointer[segPayload] // decoded columns; nil when evicted
}

// segPayload is a segment's decoded columns. A payload faulted in for
// a scan may hold only the columns that scan reads (nil entries are
// not decoded); bytes is the footprint of the decoded ones.
type segPayload struct {
	cols  []*SegCol
	bytes int
}

// covers reports whether every column in need (all of them when need
// is nil) is decoded.
func (p *segPayload) covers(need []int) bool {
	for ci, c := range p.cols {
		if c == nil && (need == nil || slices.Contains(need, ci)) {
			return false
		}
	}
	return true
}

// segSrc is the spill identity of an adopted segment: the cache that
// owns its on-disk copy, the file id within it, and where each column
// starts in the file. Set once at adoption, before the payload can ever
// be evicted.
type segSrc struct {
	id   uint64
	c    *SegCache
	offs []int
}

// newSegment wraps freshly encoded columns into a resident segment.
// bytes is the payload footprint when the caller tracks it, or < 0 to
// sum the columns' Bytes.
func newSegment(cols []*SegCol, n int, sealed bool, bytes int) *Segment {
	s := &Segment{N: n, Sealed: sealed, Zones: make([]ZoneMap, len(cols)), bytes: bytes}
	if bytes < 0 {
		s.bytes = 0
		for _, c := range cols {
			s.bytes += c.Bytes()
		}
	}
	for i, c := range cols {
		s.Zones[i] = c.Zone
	}
	s.pay.Store(&segPayload{cols: cols, bytes: s.bytes})
	return s
}

// Cols returns the segment's decoded columns, faulting them in through
// the segment cache when the payload was evicted. done, when non-nil,
// aborts a fault-in wait (the cancellation signal of the serving run);
// a nil done waits indefinitely. The returned columns are immutable
// and stay valid however the cache evicts afterwards — eviction only
// drops the cache's reference, never the data under a reader.
func (s *Segment) Cols(done <-chan struct{}) ([]*SegCol, error) {
	return s.ColsFor(nil, done)
}

// ColsFor is Cols for a reader of the listed column indexes only (all
// of them when need is nil): the listed columns of the result are
// decoded, the others may be nil. A fault-in decodes just the missing
// listed columns, so a scan of one column of an evicted segment
// allocates that column, not the whole payload.
func (s *Segment) ColsFor(need []int, done <-chan struct{}) ([]*SegCol, error) {
	if p := s.pay.Load(); p != nil && p.covers(need) {
		if sp := s.src.Load(); sp != nil {
			s.ref.Store(true)
			sp.c.hits.Add(1)
		}
		return p.cols, nil
	}
	sp := s.src.Load()
	if sp == nil {
		return nil, errors.New("store: segment payload missing and no segment cache to fault from")
	}
	return sp.c.fault(s, sp, need, done)
}

// MustCols is Cols without a cancellation signal, panicking on fault
// failure — for tests, benchmarks and footprint accounting over sets
// that are memory-only or known readable.
func (s *Segment) MustCols() []*SegCol {
	cols, err := s.Cols(nil)
	if err != nil {
		panic(err)
	}
	return cols
}

// Resident returns the decoded columns when resident, nil when
// evicted. It never faults and never counts a cache touch. Columns are
// complete for a segment that was never evicted (tails, and sealed
// segments until adoption); after a column-wise fault-in some may be
// nil.
func (s *Segment) Resident() []*SegCol {
	if p := s.pay.Load(); p != nil {
		return p.cols
	}
	return nil
}

// Bytes is the data footprint of the segment's encoded payload,
// whether or not it is currently resident.
func (s *Segment) Bytes() int { return s.bytes }

// SegSet is the segment layout of one table version: sealed segments
// in row order, then at most one unsealed plain tail. Start[i] is the
// table row id of segment i's first row.
type SegSet struct {
	Segs  []*Segment
	Start []int
	N     int // total rows covered
}

// Locate maps a table row id to (segment index, segment-local offset).
func (s *SegSet) Locate(row int) (int, int) {
	lo, hi := 0, len(s.Segs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.Start[mid] <= row {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, row - s.Start[lo]
}

// Bytes is the resident data footprint of the whole layout.
func (s *SegSet) Bytes() int {
	b := 0
	for _, seg := range s.Segs {
		b += seg.Bytes()
	}
	return b
}

// PlainBytes is the footprint the same rows take plain-encoded (typed
// slices, string headers and bytes, null bitmaps), accounted like
// Bytes and fixed at encode time — the uncompressed baseline the
// compression experiments compare against, known without a fault-in.
func (s *SegSet) PlainBytes() int {
	b := 0
	for _, seg := range s.Segs {
		b += seg.plain
	}
	return b
}

// ---- readers ----

// forValues calls fn(i, v) for each row i in [lo, hi) of the column,
// decoding RLE/FOR ints once per call rather than once per cell.
func (c *SegCol) forValues(lo, hi int, fn func(i int, v Value)) {
	if c.Kind == KindInt && c.Enc != SegPlain {
		ints := c.DecodeInts(lo, hi, nil)
		for i := lo; i < hi; i++ {
			if c.Nuls.Get(i) {
				fn(i, Null())
			} else {
				fn(i, Int(ints[i-lo]))
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		fn(i, c.Value(i))
	}
}

// walk visits the segments covering rows [lo, hi) in order, faulting
// in the columns in need (all when nil): fn gets the payload, the
// segment-local window [off, end) and the segment's first row id.
func (s *SegSet) walk(lo, hi int, need []int, fn func(cols []*SegCol, off, end, base int)) error {
	for pos := lo; pos < hi; {
		si, off := s.Locate(pos)
		cols, err := s.Segs[si].ColsFor(need, nil)
		if err != nil {
			return err
		}
		end, base := min(s.Segs[si].N, off+hi-pos), s.Start[si]
		fn(cols, off, end, base)
		pos = base + end
	}
	return nil
}

// scanCol calls fn(id, v) for rows [lo, hi) of column ci in row order.
func (s *SegSet) scanCol(ci, lo, hi int, fn func(id int, v Value)) error {
	return s.walk(lo, hi, []int{ci}, func(cols []*SegCol, off, end, base int) {
		cols[ci].forValues(off, end, func(i int, v Value) { fn(base+i, v) })
	})
}

// valueAt reads the cell of column ci at row id.
func (s *SegSet) valueAt(ci, id int) (v Value, err error) {
	err = s.walk(id, id+1, []int{ci}, func(cols []*SegCol, off, _, _ int) { v = cols[ci].Value(off) })
	return v, err
}

// readRows materializes rows [lo, hi) of an ncols-wide layout row-major
// into one value arena, walking segment-major so each payload is
// faulted in once however many columns it has.
func (s *SegSet) readRows(ncols, lo, hi int) ([]Row, error) {
	rows := make([]Row, hi-lo)
	arena := make([]Value, (hi-lo)*ncols)
	for r := range rows {
		rows[r] = arena[r*ncols : (r+1)*ncols : (r+1)*ncols]
	}
	return rows, s.walk(lo, hi, nil, func(cols []*SegCol, off, end, base int) {
		for ci, c := range cols {
			c.forValues(off, end, func(i int, v Value) { rows[base+i-lo][ci] = v })
		}
	})
}

// eachSegment materializes the layout's rows one segment at a time, so
// a rewrite of the whole layout holds one segment of Rows at once.
func (s *SegSet) eachSegment(ncols int, fn func(rows []Row)) error {
	for si, seg := range s.Segs {
		rows, err := s.readRows(ncols, s.Start[si], s.Start[si]+seg.N)
		if err != nil {
			return err
		}
		fn(rows)
	}
	return nil
}

// zone merges column ci's per-segment zone maps over the layout. The
// range is NULL when no cell is non-NULL, and NULL (unknown) with
// non-NULL rows when any segment's range is unknown.
func (s *SegSet) zone(ci int) ZoneMap {
	var z ZoneMap
	for _, seg := range s.Segs {
		sz := seg.Zones[ci]
		seen := z.Rows > z.Nulls
		z.Rows += sz.Rows
		z.Nulls += sz.Nulls
		switch {
		case sz.AllNull():
		case sz.Min.IsNull():
			z.Min, z.Max = Null(), Null()
		default:
			z.widen(sz.Min, sz.Max, seen)
		}
	}
	return z
}

// ---- encoders ----

// Encoding thresholds. A dictionary pays when distinct values repeat
// enough to amortize the dictionary entries; RLE pays when runs are
// long; FOR width follows the value range.
const (
	segDictMaxCard = 1 << 15 // dictionary entries per segment
	segRLEMinRun   = 8       // average run length that justifies RLE
)

// newSegSet lays segments out in row order, computing their starts.
func newSegSet(segs []*Segment) *SegSet {
	ss := &SegSet{Segs: segs, Start: make([]int, len(segs))}
	for i, seg := range segs {
		ss.Start[i] = ss.N
		ss.N += seg.N
	}
	return ss
}

// appendSegs returns ss extended by rows (validated against meta's
// column types). Sealed segments are shared by pointer; the tail's
// typed slices append in place, which is safe because writers are
// serialized per partition and only ever write past the length any
// published version holds. A tail that
// reaches segRows seals — its plain columns compress into an immutable
// segment — and a fresh tail starts. Cost is O(len(rows)) plus one
// segment header per publish, whatever the tail's length.
func appendSegs(meta *schema.Table, ss *SegSet, rows []Row, segRows int) *SegSet {
	if segRows <= 0 {
		segRows = DefaultSegmentRows
	}
	segs := ss.Segs
	var tail *Segment
	if n := len(segs); n > 0 && !segs[n-1].Sealed {
		tail, segs = segs[n-1], segs[:n-1]
	}
	out := make([]*Segment, len(segs), len(segs)+2+len(rows)/segRows)
	copy(out, segs)
	for len(rows) > 0 {
		n := 0
		if tail != nil {
			n = tail.N
		}
		k := min(segRows-n, len(rows))
		tail = appendTail(meta, tail, rows[:k])
		rows = rows[k:]
		if tail.N == segRows {
			out = append(out, sealTail(tail))
			tail = nil
		}
	}
	if tail != nil {
		out = append(out, tail)
	}
	return newSegSet(out)
}

// appendTail returns a new unsealed tail segment holding the old
// tail's rows (nil: none) followed by rows. Column structs, zone maps
// and null bitmaps are fresh per publish — a bitmap's last word would
// otherwise be shared with readers of the old tail — while the data
// slices extend in place.
func appendTail(meta *schema.Table, old *Segment, rows []Row) *Segment {
	var prev []*SegCol
	bytes := 0
	if old != nil {
		prev, bytes = old.Resident(), old.bytes
	}
	cols := make([]*SegCol, len(meta.Columns))
	block := make([]SegCol, len(meta.Columns)) // one allocation for every column header
	for ci, mc := range meta.Columns {
		c := &block[ci]
		if prev != nil {
			*c = *prev[ci]
		} else {
			c.Kind, c.Enc = KindOfColType(mc.Type), SegPlain
		}
		bytes += c.appendRows(rows, ci)
		cols[ci] = c
	}
	n := len(rows)
	if old != nil {
		n += old.N
	}
	s := newSegment(cols, n, false, bytes)
	s.plain = bytes
	return s
}

// appendRows appends column ci of rows to a plain column, extending
// its zone map and null bitmap, and returns the bytes added.
func (c *SegCol) appendRows(rows []Row, ci int) int {
	n, m := c.N, c.N+len(rows)
	nulls := 0
	for _, r := range rows {
		if r[ci].IsNull() {
			nulls++
		}
	}
	oldWords := len(c.Nuls)
	if nulls > 0 || (c.Nuls != nil && oldWords < (m+63)/64) {
		nb := NewBitmap(m)
		copy(nb, c.Nuls)
		c.Nuls = nb
		for i, r := range rows {
			if r[ci].IsNull() {
				nb.Set(n + i)
			}
		}
	}
	seen := c.N > c.Zone.Nulls // a non-NULL value precedes the batch
	c.N, c.Zone.Rows, c.Zone.Nulls = m, m, c.Zone.Nulls+nulls
	added := (len(c.Nuls) - oldWords) * 8

	// NULL cells store their kind's zero value.
	switch c.Kind {
	case KindInt:
		c.Ints = slices.Grow(c.Ints, len(rows))
		for _, r := range rows {
			c.Ints = append(c.Ints, r[ci].Int64())
		}
		if lo, hi, ok := span(c.Ints[n:], c.Nuls, n); ok {
			c.Zone.widen(Int(lo), Int(hi), seen)
		}
		return added + len(rows)*8
	case KindFloat:
		c.Floats = slices.Grow(c.Floats, len(rows))
		nan := false
		for _, r := range rows {
			f, _ := r[ci].AsFloat() // INT cells widen into FLOAT columns
			c.Floats = append(c.Floats, f)
			nan = nan || f != f
		}
		if nan {
			// NaN is unordered: the range becomes unknown for good, so
			// the skip rule never drops a segment it cannot reason about.
			c.Zone.Min, c.Zone.Max = Null(), Null()
		} else if lo, hi, ok := span(c.Floats[n:], c.Nuls, n); ok {
			c.Zone.widen(Float(lo), Float(hi), seen)
		}
		return added + len(rows)*8
	case KindText:
		c.Strs = slices.Grow(c.Strs, len(rows))
		for _, r := range rows {
			s := r[ci].Str()
			c.Strs = append(c.Strs, s)
			added += 16 + len(s)
		}
		if lo, hi, ok := span(c.Strs[n:], c.Nuls, n); ok {
			c.Zone.widen(Text(lo), Text(hi), seen)
		}
		return added
	case KindBool:
		c.Bools = slices.Grow(c.Bools, len(rows))
		var sawT, sawF bool
		for i, r := range rows {
			b := r[ci].BoolVal()
			c.Bools = append(c.Bools, b)
			sawT, sawF = sawT || (b && !c.Nuls.Get(n+i)), sawF || (!b && !c.Nuls.Get(n+i))
		}
		if sawT || sawF {
			c.Zone.widen(Bool(!sawF), Bool(sawT), seen)
		}
		return added + len(rows)
	}
	return added
}

// span returns the range of the non-NULL values in vals, whose first
// element is row base of the column.
func span[T cmp.Ordered](vals []T, nulls Bitmap, base int) (lo, hi T, ok bool) {
	for i, v := range vals {
		switch {
		case nulls.Get(base + i):
		case !ok:
			lo, hi, ok = v, v, true
		case v < lo:
			lo = v
		case v > hi:
			hi = v
		}
	}
	return lo, hi, ok
}

// widen folds a batch's non-NULL range [lo, hi] into the zone map.
// seen reports whether non-NULL values preceded the batch; if so and
// the range is NULL, a NaN made it unknown and it stays unknown.
func (z *ZoneMap) widen(lo, hi Value, seen bool) {
	if !seen {
		z.Min, z.Max = lo, hi
		return
	}
	if z.Min.IsNull() {
		return
	}
	if Compare(lo, z.Min) < 0 {
		z.Min = lo
	}
	if Compare(hi, z.Max) > 0 {
		z.Max = hi
	}
}

// forDeltas packs vals as unsigned offsets from lo (NULL cells: 0).
func forDeltas[T uint8 | uint16 | uint32](vals []int64, nulls Bitmap, lo int64) []T {
	d := make([]T, len(vals))
	for i, v := range vals {
		if !nulls.Get(i) {
			d[i] = T(uint64(v) - uint64(lo))
		}
	}
	return d
}

// sealTail compresses a full tail into an immutable sealed segment,
// picking per column the encoding that pays. Its zone maps carry over
// from the tail, which maintained them row by row.
func sealTail(tail *Segment) *Segment {
	plain := tail.Resident()
	cols := make([]*SegCol, len(plain))
	for ci, p := range plain {
		cols[ci] = sealCol(p)
	}
	s := newSegment(cols, tail.N, true, -1)
	s.plain = tail.plain
	return s
}

// sealCol encodes one full plain column, compressing int and text
// columns where it pays. Payloads that stay plain are copied, so the
// sealed segment never shares the tail's growable backing arrays.
func sealCol(p *SegCol) *SegCol {
	c := &SegCol{Kind: p.Kind, Enc: SegPlain, N: p.N, Zone: p.Zone, Nuls: slices.Clone(p.Nuls)}
	if p.N > p.Zone.Nulls { // some non-NULL value to encode
		switch {
		case p.Kind == KindInt && sealInts(c, p.Ints):
			return c
		case p.Kind == KindText && sealDict(c, p.Strs):
			return c
		}
	}
	c.Ints, c.Floats, c.Strs, c.Bools = slices.Clone(p.Ints), slices.Clone(p.Floats), slices.Clone(p.Strs), slices.Clone(p.Bools)
	return c
}

// sealInts encodes an int column run-length when runs are long, else
// frame-of-reference when the range is narrow; false leaves it plain.
func sealInts(c *SegCol, vals []int64) bool {
	n, nulls := c.N, c.Nuls
	// A NULL cell breaks a value run (runs carry nullness).
	runs := 0
	for i := range vals {
		if i == 0 || nulls.Get(i) || nulls.Get(i-1) || vals[i] != vals[i-1] {
			runs++
		}
	}
	if runs*segRLEMinRun <= n {
		c.Enc = SegRLE
		c.RunVals = make([]int64, 0, runs)
		c.RunEnds = make([]int32, 0, runs)
		for i, v := range vals {
			last := len(c.RunVals) - 1
			if last >= 0 && c.RunVals[last] == v && int(c.RunEnds[last]) == i &&
				nulls.Get(i) == nulls.Get(i-1) {
				c.RunEnds[last] = int32(i + 1)
				continue
			}
			c.RunVals = append(c.RunVals, v)
			c.RunEnds = append(c.RunEnds, int32(i+1))
		}
		return true
	}
	// Frame-of-reference: two's-complement subtraction gives the exact
	// unsigned range for any int64 pair.
	lo := c.Zone.Min.Int64()
	switch span := uint64(c.Zone.Max.Int64()) - uint64(lo); {
	case span < 1<<8:
		c.Enc, c.Base, c.D8 = SegFOR, lo, forDeltas[uint8](vals, nulls, lo)
	case span < 1<<16:
		c.Enc, c.Base, c.D16 = SegFOR, lo, forDeltas[uint16](vals, nulls, lo)
	case span < 1<<32:
		c.Enc, c.Base, c.D32 = SegFOR, lo, forDeltas[uint32](vals, nulls, lo)
	default:
		return false
	}
	return true
}

// sealDict dictionary-encodes a text column whose distinct values
// repeat enough; false leaves it plain.
func sealDict(c *SegCol, strs []string) bool {
	codes := make([]int32, c.N)
	dict := make([]string, 0, 16)
	byVal := make(map[string]int32, 16)
	for i, s := range strs {
		if c.Nuls.Get(i) {
			continue
		}
		code, found := byVal[s]
		if !found {
			if len(dict) >= segDictMaxCard || len(dict) >= (c.N+1)/2 {
				return false
			}
			code = int32(len(dict))
			dict = append(dict, s)
			byVal[s] = code
		}
		codes[i] = code
	}
	c.Enc, c.Codes, c.Dict = SegDict, codes, dict
	return true
}

// SegCounters tallies segment scan activity for one execution —
// segments visited vs skipped by zone maps. Shared across exchange
// workers, hence atomic.
type SegCounters struct {
	Scanned atomic.Int64
	Skipped atomic.Int64
}
