package plan

import (
	"fmt"
	"sort"

	"repro/internal/sql"
	"repro/internal/store"
)

// This file is the operator half of the batch executor: batch-at-a-time
// scan, filter, project, hash and cross join, aggregate, sort, distinct
// and limit over the typed column vectors of vec.go. It is the only
// executor: expressions the vector compiler declines — subqueries,
// outer (correlated) references, bare non-grouped columns — run through
// the evaluator fallback inside the same operators, one selected row
// (rowEval) or one group (Evaluator.EvalGroup) at a time.
//
// Every operator emits rows in a deterministic order (input order for
// streaming operators, first-seen order for groups), so a parallel run
// is row-for-row identical to the serial one — the property the
// differential tests pin.

// viter is a pull iterator over batches; nil signals exhaustion.
// Returned batches always have at least one selected row.
type viter func() (*vbatch, error)

// rowEval is the evaluator fallback for per-row expressions: it boxes
// one selected row of a batch into a reusable frame (whose parent is
// the run's correlation frame) and evaluates through ctx.Ev. Frames are
// per operator instance, so Exchange workers never share one.
type rowEval struct {
	ev    Evaluator
	frame Frame
}

func newRowEval(ctx *Ctx, rel *Rel) *rowEval {
	return &rowEval{ev: ctx.Ev, frame: Frame{Rel: rel, Row: make(store.Row, rel.Width), Parent: ctx.Parent}}
}

// load boxes physical row i of b into the frame.
func (r *rowEval) load(b *vbatch, i int) {
	for c := range b.cols {
		r.frame.Row[c] = b.cols[c].value(i)
	}
}

func (r *rowEval) eval(e sql.Expr) (store.Value, error) { return r.ev.Eval(&r.frame, e) }

// drainCols materializes a batch stream into dense columns of the
// given kinds (nil: the first batch's kinds), returning the row count
// separately so zero-width inputs still count their rows.
func drainCols(in viter, kinds []store.Kind) ([]vcol, int, error) {
	var bufs []*colbuf
	for _, k := range kinds {
		bufs = append(bufs, newColbuf(k))
	}
	rows := 0
	for {
		b, err := in()
		if err != nil {
			return nil, 0, err
		}
		if b == nil {
			break
		}
		if bufs == nil {
			bufs = make([]*colbuf, len(b.cols))
			for c := range b.cols {
				bufs[c] = newColbuf(b.cols[c].kind)
			}
		}
		rows += b.rows()
		b.forSel(func(i int) {
			for c := range bufs {
				bufs[c].push(&b.cols[c], i)
			}
		})
	}
	cols := make([]vcol, len(bufs))
	for c := range bufs {
		cols[c] = bufs[c].col()
	}
	return cols, rows, nil
}

// collect drains a relational child into dense columns of its row
// shape — the materialized side of a join.
func collect(n Node, ctx *Ctx) ([]vcol, int, error) {
	in, err := n.open(ctx)
	if err != nil {
		return nil, 0, err
	}
	return drainCols(in, relKinds(n.Rel()))
}

// ---- scans ----

// open starts the scan. Leaf scans carry the cancellation checkpoint:
// every batch a pipeline processes is pulled through a leaf, so a
// per-batch check here covers the whole operator tree.
func (s *Scan) open(ctx *Ctx) (viter, error) {
	it, err := s.batches(ctx)
	if err != nil {
		return nil, err
	}
	return ctxViter(ctx, it), nil
}

func (s *Scan) batches(ctx *Ctx) (viter, error) {
	tab := ctx.Snap.Table(s.B.Meta.Name)
	if tab == nil {
		return nil, errUnknownTable(s.B.Meta.Name)
	}
	// A partition-wise worker reads exactly its claimed partition's
	// stream: the partition view's own segment set.
	if pw := ctx.pw; pw != nil {
		if _, ok := pw.scans[s]; ok {
			tab = tab.Part(pw.pi)
			if ctx.PartC != nil {
				ctx.PartC.Scanned.Add(1)
			}
		}
	}
	// Skip predicates re-bind against this run's parameters, so a
	// prepared template skips and prunes per its bound constants.
	preds, skipAll := bindZonePreds(s.Skips, ctx.Params)
	ss := tab.Segments()
	if mr := ctx.part; mr != nil && mr.node == Node(s) {
		if mr.ids != nil {
			return segGatherBatches(ctx, ss, s.B, mr.ids), nil
		}
		return segScanBatches(ctx, ss, s.B, mr.lo, mr.hi, preds, skipAll), nil
	}
	// Partition boundaries are segment boundaries in the merged set, so
	// a pruned partition's segments are never located, faulted or
	// decoded — pruning happens strictly before any segment I/O.
	if ranges := s.pruneParts(ctx, tab, preds, skipAll); ranges != nil {
		its := make([]viter, len(ranges))
		for i, r := range ranges {
			its[i] = segScanBatches(ctx, ss, s.B, r[0], r[1], preds, skipAll)
		}
		return chainViters(its), nil
	}
	return segScanBatches(ctx, ss, s.B, 0, ss.N, preds, skipAll), nil
}

func (s *IndexScan) open(ctx *Ctx) (viter, error) {
	it, err := s.batches(ctx)
	if err != nil {
		return nil, err
	}
	return ctxViter(ctx, it), nil
}

func (s *IndexScan) batches(ctx *Ctx) (viter, error) {
	tab := ctx.Snap.Table(s.B.Meta.Name)
	if tab == nil {
		return nil, errUnknownTable(s.B.Meta.Name)
	}
	ss := tab.Segments()
	if mr := ctx.part; mr != nil && mr.node == Node(s) {
		return segGatherBatches(ctx, ss, s.B, mr.ids), nil
	}
	ids, err := s.lookupIDs(ctx)
	if err != nil {
		return nil, err
	}
	return segGatherBatches(ctx, ss, s.B, ids), nil
}

// segFault resolves the binding's columns of a segment through
// Segment.ColsFor, faulting just those columns of an evicted payload
// in from the segment cache. The run's Done channel covers the
// fault-in wait, so a canceled request abandons the disk read queue
// like any other checkpoint — the cancellation cause wins over the
// cache's sentinel error.
func segFault(ctx *Ctx, seg *store.Segment, b Binding) ([]*store.SegCol, error) {
	cols, err := seg.ColsFor(b.Cols, ctx.Done)
	if err != nil {
		if cerr := ctx.canceled(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	return cols, nil
}

// segScanBatches iterates rows [lo, hi) of the segment layout as
// batches. Whole segments whose zone maps refute a skip predicate are
// dropped without touching their data (a segment-wide proof of
// non-TRUE holds for any window of it, so partial morsel overlap skips
// too). Plain/float/bool/string payloads and dictionary codes are
// zero-copy views; RLE- and FOR-encoded ints decode into fresh slices
// per batch, never a shared scratch — Exchange workers retain batches.
func segScanBatches(ctx *Ctx, ss *store.SegSet, b Binding, lo, hi int, preds []boundZone, skipAll bool) viter {
	sc := ctx.SegC
	pos := lo
	si := -1
	segEnd := 0
	var segCols []*store.SegCol
	return func() (*vbatch, error) {
		for pos < hi {
			if si < 0 || pos >= segEnd {
				nsi, _ := ss.Locate(pos)
				si = nsi
				seg := ss.Segs[si]
				segEnd = ss.Start[si] + seg.N
				// The skip decision reads only the always-resident zone
				// maps; an evicted segment that skips is pruned without
				// faulting its payload back in.
				if skipAll || skipSegment(seg, preds) {
					if sc != nil {
						sc.Skipped.Add(1)
					}
					pos = segEnd
					si = -1
					continue
				}
				var err error
				if segCols, err = segFault(ctx, seg, b); err != nil {
					return nil, err
				}
				if sc != nil {
					sc.Scanned.Add(1)
				}
			}
			segStart := ss.Start[si]
			wlo := pos - segStart
			whi := min(segEnd, hi) - segStart
			if whi-wlo > maxBatch {
				whi = wlo + maxBatch
			}
			out := &vbatch{n: whi - wlo, cols: make([]vcol, len(b.Cols))}
			for c, ci := range b.Cols {
				out.cols[c] = segWindowCol(segCols[ci], wlo, whi)
			}
			pos = segStart + whi
			return out, nil
		}
		return nil, nil
	}
}

// segWindowCol views rows [lo, hi) of one segment column as a kernel
// column. Dictionary-encoded text surfaces codes+dict unmaterialized —
// the kernels compare and hash codes directly.
func segWindowCol(sc *store.SegCol, lo, hi int) vcol {
	vc := vcol{kind: sc.Kind, nulls: sc.NullMask(lo, hi)}
	switch sc.Kind {
	case store.KindInt:
		if sc.Enc == store.SegPlain {
			vc.ints = sc.Ints[lo:hi]
		} else {
			vc.ints = sc.DecodeInts(lo, hi, nil)
		}
	case store.KindFloat:
		vc.floats = sc.Floats[lo:hi]
	case store.KindText:
		if sc.Enc == store.SegDict {
			vc.codes, vc.dict = sc.Codes[lo:hi], sc.Dict
		} else {
			vc.strs = sc.Strs[lo:hi]
		}
	case store.KindBool:
		vc.bools = sc.Bools[lo:hi]
	}
	return vc
}

// segGatherBatches materializes the given row ids from the segment
// layout into dense batches — the index-scan and morsel-over-ids form.
func segGatherBatches(ctx *Ctx, ss *store.SegSet, b Binding, ids []int) viter {
	pos := 0
	// Gathers hop between segments by row id; memoize the last faulted
	// segment so runs of ids inside one segment fault it once.
	lastSi := -1
	var lastCols []*store.SegCol
	return func() (*vbatch, error) {
		if pos >= len(ids) {
			return nil, nil
		}
		end := min(pos+maxBatch, len(ids))
		chunk := ids[pos:end]
		out := &vbatch{n: len(chunk), cols: make([]vcol, len(b.Cols))}
		for c, ci := range b.Cols {
			cb := newColbuf(store.KindOfColType(b.Meta.Columns[ci].Type))
			for _, id := range chunk {
				si, off := ss.Locate(id)
				if si != lastSi {
					cols, err := segFault(ctx, ss.Segs[si], b)
					if err != nil {
						return nil, err
					}
					lastSi, lastCols = si, cols
				}
				cb.pushSegCol(lastCols[ci], off)
			}
			out.cols[c] = cb.col()
		}
		pos = end
		return out, nil
	}
}

// pushSegCol appends segment-local row i of a segment column, decoding
// through its encoding.
func (cb *colbuf) pushSegCol(sc *store.SegCol, i int) {
	isNull := sc.IsNull(i)
	cb.nulls = append(cb.nulls, isNull)
	if isNull {
		cb.anyNull = true
	}
	switch cb.kind {
	case store.KindInt:
		var v int64
		if !isNull {
			v = sc.IntAt(i)
		}
		cb.ints = append(cb.ints, v)
	case store.KindFloat:
		var v float64
		if !isNull {
			v = sc.Floats[i]
		}
		cb.floats = append(cb.floats, v)
	case store.KindText:
		var v string
		if !isNull {
			v = sc.StrAt(i)
		}
		cb.strs = append(cb.strs, v)
	case store.KindBool:
		var v bool
		if !isNull {
			v = sc.Bools[i]
		}
		cb.bools = append(cb.bools, v)
	}
}

// ---- filter ----

// open filters batches by narrowing their selection. A predicate that
// compiles runs as one vector program; otherwise its compilable
// conjuncts run as vector programs and the rest (subqueries, outer
// references) are tested per surviving row through the evaluator, in
// their written order, stopping at the first non-TRUE one.
func (f *Filter) open(ctx *Ctx) (viter, error) {
	in, err := f.In.open(ctx)
	if err != nil {
		return nil, err
	}
	c := compileRelWith(f.In.Rel(), ctx.Params)
	var preds []vexpr
	var rest []sql.Expr
	if pred, ok := c.compile(f.Pred); ok {
		preds = append(preds, pred)
	} else {
		for _, e := range conjuncts(f.Pred) {
			if pred, ok := c.compile(e); ok {
				preds = append(preds, pred)
			} else {
				rest = append(rest, e)
			}
		}
	}
	var re *rowEval
	if len(rest) > 0 {
		re = newRowEval(ctx, f.In.Rel())
	}
	return func() (*vbatch, error) {
		for {
			b, err := in()
			if err != nil || b == nil {
				return nil, err
			}
			for _, pred := range preds {
				pc := pred.eval(b)
				sel := make([]int32, 0, b.rows())
				b.forSel(func(i int) {
					if pc.kind == store.KindBool && !pc.null(i) && pc.bools[i] {
						sel = append(sel, int32(i))
					}
				})
				b.sel = sel
			}
			if re != nil {
				sel := make([]int32, 0, b.rows())
				for k, n := 0, b.rows(); k < n; k++ {
					i := b.at(k)
					re.load(b, i)
					keep := true
					for _, e := range rest {
						v, err := re.eval(e)
						if err != nil {
							return nil, err
						}
						if !IsTrue(v) {
							keep = false
							break
						}
					}
					if keep {
						sel = append(sel, int32(i))
					}
				}
				b.sel = sel
			}
			if len(b.sel) == 0 {
				continue
			}
			return b, nil
		}
	}, nil
}

// ---- hash join ----

// vecBuildTable is a materialized, hashed build side: the right
// input's columns plus a typed hash table from 64-bit key hash to
// build row ids (verified by value on probe).
type vecBuildTable struct {
	cols  []vcol
	table map[uint64][]int32
}

// build materializes and hashes the join's right input. Inside a
// parallel run the table is built exactly once (the first worker to
// arrive builds, the rest wait on the entry's once) and then probed
// concurrently.
func (j *HashJoin) build(ctx *Ctx) (*vecBuildTable, error) {
	if ctx.shared == nil {
		return j.buildLocal(ctx)
	}
	e := ctx.shared.entry(j)
	e.once.Do(func() { e.build, e.err = j.buildLocal(ctx) })
	return e.build, e.err
}

func (j *HashJoin) buildLocal(ctx *Ctx) (*vecBuildTable, error) {
	cols, n, err := collect(j.R, ctx)
	if err != nil {
		return nil, err
	}
	bt := &vecBuildTable{cols: cols, table: map[uint64][]int32{}}
	hs := make([]uint64, n)
	for _, off := range j.RKey {
		hashCol(&bt.cols[off], n, hs)
	}
	for i := 0; i < n; i++ {
		nullKey := false
		for _, off := range j.RKey {
			if bt.cols[off].kind == store.KindNull || bt.cols[off].null(i) {
				nullKey = true
				break
			}
		}
		if nullKey {
			continue // NULL keys never join
		}
		bt.table[hs[i]] = append(bt.table[hs[i]], int32(i))
	}
	return bt, nil
}

func (j *HashJoin) open(ctx *Ctx) (viter, error) {
	bt, err := j.build(ctx)
	if err != nil {
		return nil, err
	}
	in, err := j.L.open(ctx)
	if err != nil {
		return nil, err
	}
	lWidth := j.L.Rel().Width
	return func() (*vbatch, error) {
		for {
			b, err := in()
			if err != nil || b == nil {
				return nil, err
			}
			hs := make([]uint64, b.n)
			for _, off := range j.LKey {
				hashCol(&b.cols[off], b.n, hs)
			}
			lidx := make([]int32, 0, b.rows())
			ridx := make([]int32, 0, b.rows())
			b.forSel(func(i int) {
				for _, off := range j.LKey {
					if b.cols[off].kind == store.KindNull || b.cols[off].null(i) {
						return
					}
				}
				for _, cand := range bt.table[hs[i]] {
					match := true
					for k, loff := range j.LKey {
						if !eqVals(&b.cols[loff], i, &bt.cols[j.RKey[k]], int(cand)) {
							match = false
							break
						}
					}
					if match {
						lidx = append(lidx, int32(i))
						ridx = append(ridx, cand)
					}
				}
			})
			if len(lidx) == 0 {
				continue
			}
			out := &vbatch{n: len(lidx), cols: make([]vcol, j.rel.Width)}
			for c := 0; c < lWidth; c++ {
				out.cols[c] = gatherCol(&b.cols[c], lidx)
			}
			for c := lWidth; c < j.rel.Width; c++ {
				out.cols[c] = gatherCol(&bt.cols[c-lWidth], ridx)
			}
			return out, nil
		}
	}, nil
}

// ---- cross join ----

// open materializes both inputs, refuses products over MaxProduct,
// and emits the product left-major in batches, checking cancellation
// on every output batch (no leaf is pulled while it emits).
func (j *CrossJoin) open(ctx *Ctx) (viter, error) {
	lcols, ln, err := collect(j.L, ctx)
	if err != nil {
		return nil, err
	}
	rcols, rn, err := collect(j.R, ctx)
	if err != nil {
		return nil, err
	}
	if ln*rn > MaxProduct {
		name := j.R.Rel().Bindings[0].Meta.Name
		return nil, fmt.Errorf("plan: join of %s would produce over %d rows; add a join condition",
			name, MaxProduct)
	}
	li, ri := 0, 0
	return func() (*vbatch, error) {
		if li >= ln || rn == 0 {
			return nil, nil
		}
		if err := ctx.canceled(); err != nil {
			return nil, err
		}
		n := min(maxBatch, (ln-li)*rn-ri)
		lidx, ridx := make([]int32, n), make([]int32, n)
		for k := range lidx {
			lidx[k], ridx[k] = int32(li), int32(ri)
			if ri++; ri == rn {
				li, ri = li+1, 0
			}
		}
		out := &vbatch{n: n, cols: make([]vcol, 0, j.rel.Width)}
		for c := range lcols {
			out.cols = append(out.cols, gatherCol(&lcols[c], lidx))
		}
		for c := range rcols {
			out.cols = append(out.cols, gatherCol(&rcols[c], ridx))
		}
		return out, nil
	}, nil
}

// ---- project ----

// open evaluates the select items (plus trailing sort keys) per batch:
// compiled items as vector programs, the rest per selected row through
// the evaluator fallback.
func (p *Project) open(ctx *Ctx) (viter, error) {
	in, err := p.In.open(ctx)
	if err != nil {
		return nil, err
	}
	c := compileRelWith(p.In.Rel(), ctx.Params)
	exprs := append(append([]sql.Expr{}, p.Items...), p.SortKeys...)
	progs := make([]vexpr, len(exprs)) // nil: evaluator fallback
	var re *rowEval
	var kinds []store.Kind // fallback column kinds, fixed across batches
	for x, e := range exprs {
		if ve, ok := c.compile(e); ok {
			progs[x] = ve
		} else if re == nil {
			re = newRowEval(ctx, p.In.Rel())
			kinds = make([]store.Kind, len(exprs))
		}
	}
	return func() (*vbatch, error) {
		b, err := in()
		if err != nil || b == nil {
			return nil, err
		}
		out := &vbatch{n: b.rows(), cols: make([]vcol, len(exprs))}
		for x, ve := range progs {
			if ve == nil {
				continue
			}
			rc := ve.eval(b)
			if b.sel != nil {
				rc = gatherCol(&rc, b.sel)
			}
			out.cols[x] = rc
		}
		if re == nil {
			return out, nil
		}
		bufs := make([]*colbuf, len(exprs))
		for x, ve := range progs {
			if ve == nil {
				bufs[x] = newColbuf(kinds[x])
			}
		}
		for k, n := 0, b.rows(); k < n; k++ {
			re.load(b, b.at(k))
			for x, cb := range bufs {
				if cb == nil {
					continue
				}
				v, err := re.eval(exprs[x])
				if err != nil {
					return nil, err
				}
				if err := cb.pushBoxed(v); err != nil {
					return nil, err
				}
			}
		}
		for x, cb := range bufs {
			if cb != nil {
				out.cols[x], kinds[x] = cb.col(), cb.kind
			}
		}
		return out, nil
	}, nil
}

// ---- aggregate ----

// vecAggSlot is one aggregate computation: the function, its compiled
// argument over the input relation, and its result kind. A DISTINCT
// slot passes each value through its group's seen set first.
type vecAggSlot struct {
	fn       string
	star     bool
	distinct bool
	arg      vexpr
	argKind  store.Kind
	outKind  store.Kind
}

// vecAggPlan is the decomposed Aggregate: GROUP BY key programs over
// the input, aggregate slots, and the output item/HAVING/sort-key
// programs over the group pseudo-relation whose columns are the keys
// followed by the aggregate results. A nil key program is a key the
// evaluator computes per row; a nil item program (or a nil having
// under a HAVING clause) is an expression the evaluator computes per
// group with EvalGroup, over the group's retained input rows.
type vecAggPlan struct {
	keys     []vexpr
	slots    []vecAggSlot
	items    []vexpr
	having   vexpr
	rowKeys  bool // some key needs the evaluator
	keepRows bool // some item or HAVING needs EvalGroup
}

// planVecAgg decomposes a into vector programs against the run's
// parameter vector: output items reduce to GROUP BY expressions,
// standard aggregates (DISTINCT included) over vectorizable arguments,
// and vectorizable combinations thereof. Whatever does not reduce —
// a subquery, a bare non-grouped column, an aggregate over a
// non-vectorizable argument — is left to the evaluator.
func planVecAgg(a *Aggregate, params []store.Value) *vecAggPlan {
	in := compileRelWith(a.In.Rel(), params)
	ap := &vecAggPlan{}
	pseudoIdx := map[string]int{}
	var pseudoKinds []store.Kind
	for i, g := range a.GroupBy {
		ve, ok := in.compile(g)
		if !ok {
			// Items naming this key fall back too: it has no pseudo column.
			ap.keys = append(ap.keys, nil)
			ap.rowKeys = true
			pseudoKinds = append(pseudoKinds, store.KindNull)
			continue
		}
		ap.keys = append(ap.keys, ve)
		pseudoIdx[g.String()] = i
		pseudoKinds = append(pseudoKinds, ve.kind())
	}
	makeSlot := func(fc *sql.FuncCall) (vecAggSlot, bool) {
		slot := vecAggSlot{fn: fc.Name, star: fc.Star, distinct: fc.Distinct && !fc.Star}
		if fc.Star {
			if fc.Name != "COUNT" {
				return vecAggSlot{}, false
			}
			slot.outKind = store.KindInt
			return slot, true
		}
		arg, ok := in.compile(fc.Arg)
		if !ok {
			return vecAggSlot{}, false
		}
		slot.arg, slot.argKind = arg, arg.kind()
		switch fc.Name {
		case "COUNT":
			slot.outKind = store.KindInt
		case "SUM":
			if !numericOrNull(slot.argKind) {
				return vecAggSlot{}, false
			}
			slot.outKind = slot.argKind
		case "AVG":
			if !numericOrNull(slot.argKind) {
				return vecAggSlot{}, false
			}
			slot.outKind = store.KindFloat
			if slot.argKind == store.KindNull {
				slot.outKind = store.KindNull
			}
		case "MIN", "MAX":
			slot.outKind = slot.argKind
		default:
			return vecAggSlot{}, false
		}
		return slot, true
	}
	outer := &vcompiler{params: params}
	outer.resolve = func(e sql.Expr) (vexpr, bool) {
		if idx, ok := pseudoIdx[e.String()]; ok {
			return &vcolRef{off: idx, k: pseudoKinds[idx]}, true
		}
		if fc, ok := e.(*sql.FuncCall); ok {
			slot, ok := makeSlot(fc)
			if !ok {
				return nil, true
			}
			idx := len(pseudoKinds)
			pseudoIdx[fc.String()] = idx
			pseudoKinds = append(pseudoKinds, slot.outKind)
			ap.slots = append(ap.slots, slot)
			return &vcolRef{off: idx, k: slot.outKind}, true
		}
		if _, ok := e.(sql.ColumnRef); ok {
			// A bare column that is not a GROUP BY key: the evaluator
			// reads it from the group's representative row.
			return nil, true
		}
		return nil, false
	}
	for _, e := range append(append([]sql.Expr{}, a.Items...), a.SortKeys...) {
		ve, ok := outer.compile(e)
		if !ok {
			ve = nil
			ap.keepRows = true
		}
		ap.items = append(ap.items, ve)
	}
	if a.Having != nil {
		if ve, ok := outer.compile(a.Having); ok {
			ap.having = ve
		} else {
			ap.keepRows = true
		}
	}
	return ap
}

// distinctSet is the seen set of a DISTINCT aggregate, per group but
// held as one hash table over (group, value) pairs: the value's typed
// hash (hashCol) mixed with the group id, verified with eqVals — so
// DISTINCT aggregates dedup under the same key equality as GROUP BY
// and the Distinct operator.
type distinctSet struct {
	idx  map[uint64][]int32
	gids []int32
	vals *colbuf
}

func newDistinctSet(kind store.Kind) *distinctSet {
	return &distinctSet{idx: map[uint64][]int32{}, vals: newColbuf(kind)}
}

// add records value i of arg (whose hash is h) for group gid and
// reports whether the group had not seen it. NULLs are never recorded:
// aggregates skip them.
func (d *distinctSet) add(gid int, arg *vcol, i int, h uint64) bool {
	if arg.kind == store.KindNull || arg.null(i) {
		return false
	}
	h = mix64(h ^ uint64(gid))
	seen := d.vals.col()
	for _, c := range d.idx[h] {
		if int(d.gids[c]) == gid && eqVals(arg, i, &seen, int(c)) {
			return false
		}
	}
	d.idx[h] = append(d.idx[h], int32(len(d.gids)))
	d.gids = append(d.gids, int32(gid))
	d.vals.push(arg, i)
	return true
}

// aggState holds the running accumulators of one slot, one entry per
// group.
type aggState struct {
	counts []int64
	sums   []float64
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	has    []bool
}

func (st *aggState) grow() {
	st.counts = append(st.counts, 0)
	st.sums = append(st.sums, 0)
	st.ints = append(st.ints, 0)
	st.floats = append(st.floats, 0)
	st.strs = append(st.strs, "")
	st.bools = append(st.bools, false)
	st.has = append(st.has, false)
}

// update folds value i of the argument column into group gid, exactly
// reproducing the scalar aggregate semantics (NULLs skipped, SUM/AVG
// accumulate in float64, MIN/MAX keep the first of equals).
func (slot *vecAggSlot) update(st *aggState, gid int, arg *vcol, i int) {
	if slot.star {
		st.counts[gid]++
		return
	}
	if arg.kind == store.KindNull || arg.null(i) {
		return
	}
	switch slot.fn {
	case "COUNT":
		st.counts[gid]++
	case "SUM", "AVG":
		st.counts[gid]++
		if arg.kind == store.KindInt {
			st.sums[gid] += float64(arg.ints[i])
		} else {
			st.sums[gid] += arg.floats[i]
		}
	case "MIN", "MAX":
		min := slot.fn == "MIN"
		switch slot.argKind {
		case store.KindInt:
			// Exact integer comparison, matching the evaluator's
			// int-int store.Compare (a float64 round-trip collapses
			// distinct values beyond 2^53).
			v := arg.ints[i]
			cur := st.ints[gid]
			if !st.has[gid] || (min && v < cur) || (!min && v > cur) {
				st.ints[gid] = v
				st.has[gid] = true
			}
		case store.KindFloat:
			f := arg.floats[i]
			cur := st.floats[gid]
			if !st.has[gid] || (min && f < cur) || (!min && f > cur) {
				st.floats[gid] = f
				st.has[gid] = true
			}
		case store.KindText:
			s := arg.str(i)
			if !st.has[gid] || (min && s < st.strs[gid]) || (!min && s > st.strs[gid]) {
				st.strs[gid] = s
				st.has[gid] = true
			}
		case store.KindBool:
			v := arg.bools[i]
			cur := st.bools[gid]
			if !st.has[gid] || (min && !v && cur) || (!min && v && !cur) {
				st.bools[gid] = v
				st.has[gid] = true
			}
		}
	}
}

// col freezes the slot's per-group results into an output column.
func (slot *vecAggSlot) col(st *aggState, n int) vcol {
	switch slot.fn {
	case "COUNT":
		return vcol{kind: store.KindInt, ints: st.counts[:n]}
	case "SUM":
		nulls := countNulls(st.counts[:n])
		if slot.outKind == store.KindInt {
			out := make([]int64, n)
			for i := 0; i < n; i++ {
				out[i] = int64(st.sums[i])
			}
			return vcol{kind: store.KindInt, ints: out, nulls: nulls}
		}
		if slot.outKind == store.KindNull {
			return allNullCol(n)
		}
		return vcol{kind: store.KindFloat, floats: st.sums[:n], nulls: nulls}
	case "AVG":
		if slot.outKind == store.KindNull {
			return allNullCol(n)
		}
		nulls := countNulls(st.counts[:n])
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			if st.counts[i] > 0 {
				out[i] = st.sums[i] / float64(st.counts[i])
			}
		}
		return vcol{kind: store.KindFloat, floats: out, nulls: nulls}
	default: // MIN, MAX
		var nulls []bool
		for i := 0; i < n; i++ {
			if !st.has[i] {
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[i] = true
			}
		}
		switch slot.argKind {
		case store.KindInt:
			return vcol{kind: store.KindInt, ints: st.ints[:n], nulls: nulls}
		case store.KindFloat:
			return vcol{kind: store.KindFloat, floats: st.floats[:n], nulls: nulls}
		case store.KindText:
			return vcol{kind: store.KindText, strs: st.strs[:n], nulls: nulls}
		case store.KindBool:
			return vcol{kind: store.KindBool, bools: st.bools[:n], nulls: nulls}
		}
		return allNullCol(n)
	}
}

// countNulls marks groups with a zero non-NULL count (SUM/AVG of an
// empty set is NULL); nil when every group accumulated something.
func countNulls(counts []int64) []bool {
	var nulls []bool
	for i, c := range counts {
		if c == 0 {
			if nulls == nil {
				nulls = make([]bool, len(counts))
			}
			nulls[i] = true
		}
	}
	return nulls
}

func allNullCol(n int) vcol {
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = true
	}
	return vcol{kind: store.KindNull, nulls: nulls}
}

// open consumes the whole input, partitioning it into groups in
// first-seen order, then evaluates HAVING and the output items once
// per group. The global group (no GROUP BY) exists even over empty
// input.
func (a *Aggregate) open(ctx *Ctx) (viter, error) {
	ap := planVecAgg(a, ctx.Params)
	in, err := a.In.open(ctx)
	if err != nil {
		return nil, err
	}
	rel := a.In.Rel()
	var re *rowEval
	if ap.rowKeys {
		re = newRowEval(ctx, rel)
	}
	nk := len(ap.keys)
	keyBufs := make([]*colbuf, nk)
	for i, k := range ap.keys {
		kind := store.KindNull // evaluator keys take their first non-NULL kind
		if k != nil {
			kind = k.kind()
		}
		keyBufs[i] = newColbuf(kind)
	}
	groupIdx := map[uint64][]int32{}
	states := make([]aggState, len(ap.slots))
	sets := make([]*distinctSet, len(ap.slots))
	for s := range ap.slots {
		if ap.slots[s].distinct {
			sets[s] = newDistinctSet(ap.slots[s].argKind)
		}
	}
	var groupRows [][]store.Row // per group, only when ap.keepRows
	ngroups := 0
	newGroup := func() int {
		for s := range states {
			states[s].grow()
		}
		if ap.keepRows {
			groupRows = append(groupRows, nil)
		}
		ngroups++
		return ngroups - 1
	}
	if nk == 0 {
		newGroup()
	}
	argHs := make([][]uint64, len(ap.slots)) // per-batch value hashes of DISTINCT slots

	for {
		b, err := in()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		keyCols := make([]vcol, nk)
		for k, ve := range ap.keys {
			if ve != nil {
				keyCols[k] = ve.eval(b)
			}
		}
		if re != nil {
			if err := a.evalKeys(re, ap, b, keyBufs, keyCols); err != nil {
				return nil, err
			}
		}
		argCols := make([]vcol, len(ap.slots))
		for s := range ap.slots {
			if ap.slots[s].arg == nil {
				continue
			}
			argCols[s] = ap.slots[s].arg.eval(b)
			if sets[s] != nil {
				argHs[s] = make([]uint64, b.n)
				hashCol(&argCols[s], b.n, argHs[s])
			}
		}
		var hs []uint64
		if nk > 0 {
			hs = make([]uint64, b.n)
			for k := range keyCols {
				hashCol(&keyCols[k], b.n, hs)
			}
		}
		var slab []store.Value // retained input rows, one allocation per batch
		if ap.keepRows {
			slab = make([]store.Value, b.rows()*rel.Width)
		}
		b.forSel(func(i int) {
			gid := 0
			if nk > 0 {
				h := hs[i]
				gid = -1
				for _, cand := range groupIdx[h] {
					match := true
					for k := range keyCols {
						kc := keyBufs[k].col()
						if !eqVals(&keyCols[k], i, &kc, int(cand)) {
							match = false
							break
						}
					}
					if match {
						gid = int(cand)
						break
					}
				}
				if gid < 0 {
					gid = newGroup()
					for k := range keyCols {
						keyBufs[k].push(&keyCols[k], i)
					}
					groupIdx[h] = append(groupIdx[h], int32(gid))
				}
			}
			for s := range ap.slots {
				if sets[s] != nil && !sets[s].add(gid, &argCols[s], i, argHs[s][i]) {
					continue
				}
				ap.slots[s].update(&states[s], gid, &argCols[s], i)
			}
			if ap.keepRows {
				row := slab[:rel.Width:rel.Width]
				slab = slab[rel.Width:]
				for c := range b.cols {
					row[c] = b.cols[c].value(i)
				}
				groupRows[gid] = append(groupRows[gid], row)
			}
		})
	}

	// Assemble the group pseudo-relation: keys, then aggregate results.
	g := &vbatch{n: ngroups, cols: make([]vcol, nk+len(ap.slots))}
	for k := range keyBufs {
		g.cols[k] = keyBufs[k].col()
	}
	for s := range ap.slots {
		g.cols[nk+s] = ap.slots[s].col(&states[s], ngroups)
	}
	grp := &Group{Rel: rel, Parent: ctx.Parent}
	if a.Having != nil {
		var hc vcol
		if ap.having != nil {
			hc = ap.having.eval(g)
		}
		sel := make([]int32, 0, g.n)
		for i := 0; i < g.n; i++ {
			if ap.having == nil {
				grp.Rows = groupRows[i]
				v, err := ctx.Ev.EvalGroup(grp, a.Having)
				if err != nil {
					return nil, err
				}
				if IsTrue(v) {
					sel = append(sel, int32(i))
				}
			} else if hc.kind == store.KindBool && !hc.null(i) && hc.bools[i] {
				sel = append(sel, int32(i))
			}
		}
		g.sel = sel
	}
	exprs := append(append([]sql.Expr{}, a.Items...), a.SortKeys...)
	out := &vbatch{n: g.rows(), cols: make([]vcol, len(ap.items))}
	for x, ve := range ap.items {
		if ve != nil {
			rc := ve.eval(g)
			if g.sel != nil {
				rc = gatherCol(&rc, g.sel)
			}
			out.cols[x] = rc
			continue
		}
		cb := newColbuf(store.KindNull)
		for k := 0; k < out.n; k++ {
			grp.Rows = groupRows[g.at(k)]
			v, err := ctx.Ev.EvalGroup(grp, exprs[x])
			if err != nil {
				return nil, err
			}
			if err := cb.pushBoxed(v); err != nil {
				return nil, err
			}
		}
		out.cols[x] = cb.col()
	}
	done := false
	return func() (*vbatch, error) {
		if done || out.n == 0 {
			return nil, nil
		}
		done = true
		return out, nil
	}, nil
}

// evalKeys fills the key columns the vector compiler declined,
// evaluating each selected row through the evaluator. The columns stay
// aligned with the batch's physical rows (unselected rows read NULL,
// and are never grouped).
func (a *Aggregate) evalKeys(re *rowEval, ap *vecAggPlan, b *vbatch, keyBufs []*colbuf, keyCols []vcol) error {
	vals := make([][]store.Value, len(ap.keys))
	for k, ve := range ap.keys {
		if ve == nil {
			vals[k] = make([]store.Value, b.n)
		}
	}
	for j, n := 0, b.rows(); j < n; j++ {
		i := b.at(j)
		re.load(b, i)
		for k := range vals {
			if vals[k] == nil {
				continue
			}
			v, err := re.eval(a.GroupBy[k])
			if err != nil {
				return err
			}
			vals[k][i] = v
		}
	}
	for k := range vals {
		if vals[k] == nil {
			continue
		}
		cb := newColbuf(keyBufs[k].kind)
		for _, v := range vals[k] {
			if err := cb.pushBoxed(v); err != nil {
				return err
			}
		}
		keyCols[k] = cb.col()
	}
	return nil
}

// ---- distinct ----

func (d *Distinct) open(ctx *Ctx) (viter, error) {
	in, err := d.In.open(ctx)
	if err != nil {
		return nil, err
	}
	var seen []*colbuf
	idx := map[uint64][]int32{}
	total := 0
	return func() (*vbatch, error) {
		for {
			b, err := in()
			if err != nil || b == nil {
				return nil, err
			}
			nkey := d.N
			if nkey > len(b.cols) {
				nkey = len(b.cols)
			}
			if seen == nil {
				seen = make([]*colbuf, nkey)
				for c := 0; c < nkey; c++ {
					seen[c] = newColbuf(b.cols[c].kind)
				}
			}
			hs := make([]uint64, b.n)
			for c := 0; c < nkey; c++ {
				hashCol(&b.cols[c], b.n, hs)
			}
			var kept []int32
			b.forSel(func(i int) {
				for _, cand := range idx[hs[i]] {
					match := true
					for c := 0; c < nkey; c++ {
						sc := seen[c].col()
						if !eqVals(&b.cols[c], i, &sc, int(cand)) {
							match = false
							break
						}
					}
					if match {
						return
					}
				}
				for c := 0; c < nkey; c++ {
					seen[c].push(&b.cols[c], i)
				}
				idx[hs[i]] = append(idx[hs[i]], int32(total))
				total++
				kept = append(kept, int32(i))
			})
			if len(kept) == 0 {
				continue
			}
			out := &vbatch{n: len(kept), cols: make([]vcol, len(b.cols))}
			for c := range b.cols {
				out.cols[c] = gatherCol(&b.cols[c], kept)
			}
			return out, nil
		}
	}, nil
}

// ---- sort ----

// vcolCompare orders two values of same-kind columns with
// store.Compare semantics: NULLs first, then the typed order.
func vcolCompare(a *vcol, i int, b *vcol, j int) int {
	an := a.kind == store.KindNull || a.null(i)
	bn := b.kind == store.KindNull || b.null(j)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	switch a.kind {
	case store.KindInt:
		x, y := a.ints[i], b.ints[j]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case store.KindFloat:
		x, y := a.floats[i], b.floats[j]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case store.KindText:
		x, y := a.str(i), b.str(j)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case store.KindBool:
		x, y := a.bools[i], b.bools[j]
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
	}
	return 0
}

func (s *Sort) open(ctx *Ctx) (viter, error) {
	in, err := s.In.open(ctx)
	if err != nil {
		return nil, err
	}
	cols, total, err := drainCols(in, nil)
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return func() (*vbatch, error) { return nil, nil }, nil
	}
	perm := make([]int32, total)
	for i := range perm {
		perm[i] = int32(i)
	}
	keep := s.Keep
	sort.SliceStable(perm, func(x, y int) bool {
		a, b := int(perm[x]), int(perm[y])
		for k := range s.Keys {
			kc := &cols[keep+k]
			c := vcolCompare(kc, a, kc, b)
			if c == 0 {
				continue
			}
			if s.Keys[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := &vbatch{n: total, cols: make([]vcol, keep)}
	for c := 0; c < keep; c++ {
		out.cols[c] = gatherCol(&cols[c], perm)
	}
	done := false
	return func() (*vbatch, error) {
		if done {
			return nil, nil
		}
		done = true
		return out, nil
	}, nil
}

// ---- limit ----

func (l *Limit) open(ctx *Ctx) (viter, error) {
	if l.N <= 0 {
		return func() (*vbatch, error) { return nil, nil }, nil
	}
	in, err := l.In.open(ctx)
	if err != nil {
		return nil, err
	}
	left := l.N
	return func() (*vbatch, error) {
		if left <= 0 {
			return nil, nil
		}
		b, err := in()
		if err != nil || b == nil {
			return nil, err
		}
		r := b.rows()
		if r <= left {
			left -= r
			return b, nil
		}
		// Truncate the final batch to the remaining budget.
		if b.sel != nil {
			b.sel = b.sel[:left]
		} else {
			sel := make([]int32, left)
			for i := range sel {
				sel[i] = int32(i)
			}
			b.sel = sel
		}
		left = 0
		return b, nil
	}, nil
}
