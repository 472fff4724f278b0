package plan

import (
	"fmt"
	"math"

	"repro/internal/sql"
	"repro/internal/store"
	"repro/internal/strutil"
)

// This file is the expression half of the vectorized executor: typed
// column vectors, fixed-size batches with selection vectors, the
// compiler from sql.Expr to vector programs (vexpr), and the typed
// 64-bit hashing used for join, GROUP BY and DISTINCT keys. The
// operators that consume these live in vecexec.go.
//
// A vexpr compiles only when its semantics can be reproduced exactly
// batch-at-a-time: comparison/boolean/arithmetic expressions, BETWEEN,
// IN over literal lists, LIKE against a literal pattern, IS NULL.
// Anything else (subqueries, correlation, cross-kind comparisons,
// aggregate calls outside the Aggregate operator) declines, and the
// operator evaluates that expression through the evaluator fallback
// (see rowEval in vecexec.go).

// maxBatch is the number of rows a scan packs into one batch: large
// enough to amortize per-batch overhead, small enough to keep a
// batch's working set in cache.
const maxBatch = 1024

// vcol is one column of a batch: a typed vector plus an optional null
// mask. Exactly one data slice is populated according to kind; a
// KindNull column is all-NULL and carries no data slice.
//
// A text column may instead travel in code space: dict non-nil and
// codes holding per-row indexes into it (strs then nil) — the form
// segment scans emit for dictionary-encoded columns. Kernels with a
// per-distinct-value fast path (comparison against a constant, IN,
// LIKE, hashing) compute one result per dictionary entry and gather it
// through the codes; everything else materializes strings lazily via
// str. Selection-preserving operators (gatherCol) keep codes intact,
// so strings for filtered-out rows are never built at all.
type vcol struct {
	kind    store.Kind
	ints    []int64
	floats  []float64
	strs    []string
	bools   []bool
	nulls   []bool // nil when the column has no NULLs
	codes   []int32
	dict    []string
	isConst bool // every row holds the same value (a broadcast constant)
}

func (c *vcol) null(i int) bool { return c.nulls != nil && c.nulls[i] }

// str returns the string at row i, decoding through the dictionary in
// code space.
func (c *vcol) str(i int) string {
	if c.dict != nil {
		return c.dict[c.codes[i]]
	}
	return c.strs[i]
}

// value boxes row i back into a store.Value.
func (c *vcol) value(i int) store.Value {
	if c.kind == store.KindNull || c.null(i) {
		return store.Null()
	}
	switch c.kind {
	case store.KindInt:
		return store.Int(c.ints[i])
	case store.KindFloat:
		return store.Float(c.floats[i])
	case store.KindText:
		return store.Text(c.str(i))
	case store.KindBool:
		return store.Bool(c.bools[i])
	}
	return store.Null()
}

// vbatch is one unit of batch-at-a-time execution: n physical rows of
// column vectors, with an optional selection vector listing the rows
// that survived upstream filters. Kernels compute over all physical
// rows (cheap, branch-free); consumers iterate the selection.
type vbatch struct {
	n    int
	cols []vcol
	sel  []int32 // retained physical row indexes, nil = all n rows
}

// rows returns the number of selected rows.
func (b *vbatch) rows() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// at returns the physical row index of the k-th selected row.
func (b *vbatch) at(k int) int {
	if b.sel != nil {
		return int(b.sel[k])
	}
	return k
}

// forSel calls f for every selected physical row index.
func (b *vbatch) forSel(f func(i int)) {
	if b.sel != nil {
		for _, i := range b.sel {
			f(int(i))
		}
		return
	}
	for i := 0; i < b.n; i++ {
		f(i)
	}
}

// relKinds maps every row slot of rel to its stored value kind.
func relKinds(rel *Rel) []store.Kind {
	kinds := make([]store.Kind, rel.Width)
	for _, b := range rel.Bindings {
		for p, ci := range b.Cols {
			kinds[b.Off+p] = store.KindOfColType(b.Meta.Columns[ci].Type)
		}
	}
	return kinds
}

// orNulls unions two null masks (either may be nil).
func orNulls(a, b []bool, n int) []bool {
	if a == nil && b == nil {
		return nil
	}
	out := make([]bool, n)
	if a != nil {
		copy(out, a)
	}
	if b != nil {
		for i := 0; i < n; i++ {
			if b[i] {
				out[i] = true
			}
		}
	}
	return out
}

// asFloats widens a numeric column to float64s (a view for FLOAT
// columns, a converted copy for INT).
func asFloats(c *vcol, n int) []float64 {
	if c.kind == store.KindFloat {
		return c.floats[:n]
	}
	out := make([]float64, n)
	for i, v := range c.ints[:n] {
		out[i] = float64(v)
	}
	return out
}

// vexpr is a compiled vector expression: eval produces a column
// aligned with the batch's physical rows. Kernels are total — every
// scalar error case (division by zero, NULL operands) maps to NULL —
// so evaluation over filtered-out rows is harmless.
type vexpr interface {
	kind() store.Kind
	eval(b *vbatch) vcol
}

// ---- leaf vexprs ----

// vcolRef loads a batch column.
type vcolRef struct {
	off int
	k   store.Kind
}

func (v *vcolRef) kind() store.Kind    { return v.k }
func (v *vcolRef) eval(b *vbatch) vcol { return b.cols[v.off] }

// vconst broadcasts a constant; the backing slice grows monotonically
// and is shared across batches (constants never change).
type vconst struct {
	val   store.Value
	cache vcol
	cap   int
}

func (v *vconst) kind() store.Kind { return v.val.Kind() }

func (v *vconst) eval(b *vbatch) vcol {
	n := b.n
	if n > v.cap {
		v.grow(n)
	}
	out := v.cache
	switch out.kind {
	case store.KindInt:
		out.ints = out.ints[:n]
	case store.KindFloat:
		out.floats = out.floats[:n]
	case store.KindText:
		out.strs = out.strs[:n]
	case store.KindBool:
		out.bools = out.bools[:n]
	}
	if out.nulls != nil {
		out.nulls = out.nulls[:n]
	}
	return out
}

func (v *vconst) grow(n int) {
	v.cap = n
	v.cache = vcol{kind: v.val.Kind(), isConst: true}
	switch v.val.Kind() {
	case store.KindNull:
		nulls := make([]bool, n)
		for i := range nulls {
			nulls[i] = true
		}
		v.cache.nulls = nulls
	case store.KindInt:
		ints := make([]int64, n)
		for i := range ints {
			ints[i] = v.val.Int64()
		}
		v.cache.ints = ints
	case store.KindFloat:
		f, _ := v.val.AsFloat()
		floats := make([]float64, n)
		for i := range floats {
			floats[i] = f
		}
		v.cache.floats = floats
	case store.KindText:
		strs := make([]string, n)
		for i := range strs {
			strs[i] = v.val.Str()
		}
		v.cache.strs = strs
	case store.KindBool:
		bools := make([]bool, n)
		for i := range bools {
			bools[i] = v.val.BoolVal()
		}
		v.cache.bools = bools
	}
}

// allNull is the constant NULL column — the folded form of any
// expression with a NULL literal operand.
func allNull() vexpr { return &vconst{val: store.Null()} }

// ---- comparison ----

type vcmp struct {
	op   sql.BinOp
	l, r vexpr
}

func (v *vcmp) kind() store.Kind { return store.KindBool }

func (v *vcmp) eval(b *vbatch) vcol {
	lc, rc := v.l.eval(b), v.r.eval(b)
	n := b.n
	out := make([]bool, n)
	nulls := orNulls(lc.nulls, rc.nulls, n)
	op := v.op
	switch {
	case lc.kind == store.KindInt && rc.kind == store.KindInt:
		li, ri := lc.ints[:n], rc.ints[:n]
		for i := 0; i < n; i++ {
			out[i] = cmpOpInt(op, li[i], ri[i])
		}
	case lc.kind == store.KindText:
		switch {
		case lc.dict != nil && rc.isConst && n > 0:
			// Code space vs constant: one comparison per dictionary
			// entry, then a table gather over the codes.
			rv := rc.str(0)
			res := make([]bool, len(lc.dict))
			for d, s := range lc.dict {
				res[d] = cmpOpStr(op, s, rv)
			}
			codes := lc.codes[:n]
			for i := 0; i < n; i++ {
				out[i] = res[codes[i]]
			}
		case rc.dict != nil && lc.isConst && n > 0:
			lv := lc.str(0)
			res := make([]bool, len(rc.dict))
			for d, s := range rc.dict {
				res[d] = cmpOpStr(op, lv, s)
			}
			codes := rc.codes[:n]
			for i := 0; i < n; i++ {
				out[i] = res[codes[i]]
			}
		case lc.dict == nil && rc.dict == nil:
			ls, rs := lc.strs[:n], rc.strs[:n]
			for i := 0; i < n; i++ {
				out[i] = cmpOpStr(op, ls[i], rs[i])
			}
		default:
			for i := 0; i < n; i++ {
				out[i] = cmpOpStr(op, lc.str(i), rc.str(i))
			}
		}
	case lc.kind == store.KindBool:
		lb, rb := lc.bools[:n], rc.bools[:n]
		for i := 0; i < n; i++ {
			out[i] = cmpOpInt(op, boolRank(lb[i]), boolRank(rb[i]))
		}
	default: // numeric, at least one side FLOAT
		lf, rf := asFloats(&lc, n), asFloats(&rc, n)
		for i := 0; i < n; i++ {
			out[i] = cmpOpFloat(op, lf[i], rf[i])
		}
	}
	return vcol{kind: store.KindBool, bools: out, nulls: nulls}
}

func boolRank(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func cmpOpInt(op sql.BinOp, a, b int64) bool {
	switch op {
	case sql.OpEq:
		return a == b
	case sql.OpNe:
		return a != b
	case sql.OpLt:
		return a < b
	case sql.OpLe:
		return a <= b
	case sql.OpGt:
		return a > b
	case sql.OpGe:
		return a >= b
	}
	return false
}

func cmpOpFloat(op sql.BinOp, a, b float64) bool {
	switch op {
	case sql.OpEq:
		return a == b
	case sql.OpNe:
		return a != b
	case sql.OpLt:
		return a < b
	case sql.OpLe:
		return a <= b
	case sql.OpGt:
		return a > b
	case sql.OpGe:
		return a >= b
	}
	return false
}

func cmpOpStr(op sql.BinOp, a, b string) bool {
	switch op {
	case sql.OpEq:
		return a == b
	case sql.OpNe:
		return a != b
	case sql.OpLt:
		return a < b
	case sql.OpLe:
		return a <= b
	case sql.OpGt:
		return a > b
	case sql.OpGe:
		return a >= b
	}
	return false
}

// ---- boolean logic (three-valued) ----

type vlogic struct {
	and  bool
	l, r vexpr
}

func (v *vlogic) kind() store.Kind { return store.KindBool }

func (v *vlogic) eval(b *vbatch) vcol {
	lc, rc := v.l.eval(b), v.r.eval(b)
	n := b.n
	out := make([]bool, n)
	var nulls []bool
	for i := 0; i < n; i++ {
		lt := !lc.null(i) && lc.kind == store.KindBool && lc.bools[i]
		lf := !lc.null(i) && lc.kind == store.KindBool && !lc.bools[i]
		rt := !rc.null(i) && rc.kind == store.KindBool && rc.bools[i]
		rf := !rc.null(i) && rc.kind == store.KindBool && !rc.bools[i]
		if v.and {
			switch {
			case lf || rf:
				out[i] = false
			case lt && rt:
				out[i] = true
			default:
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[i] = true
			}
		} else {
			switch {
			case lt || rt:
				out[i] = true
			case lf && rf:
				out[i] = false
			default:
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[i] = true
			}
		}
	}
	return vcol{kind: store.KindBool, bools: out, nulls: nulls}
}

type vnot struct{ x vexpr }

func (v *vnot) kind() store.Kind { return store.KindBool }

func (v *vnot) eval(b *vbatch) vcol {
	xc := v.x.eval(b)
	n := b.n
	out := make([]bool, n)
	var nulls []bool
	if xc.nulls != nil {
		nulls = make([]bool, n)
		copy(nulls, xc.nulls[:n])
	}
	if xc.kind == store.KindBool {
		for i := 0; i < n; i++ {
			out[i] = !xc.bools[i]
		}
	}
	return vcol{kind: store.KindBool, bools: out, nulls: nulls}
}

// ---- arithmetic ----

type varith struct {
	op   sql.BinOp
	l, r vexpr
	out  store.Kind
}

func (v *varith) kind() store.Kind { return v.out }

func (v *varith) eval(b *vbatch) vcol {
	lc, rc := v.l.eval(b), v.r.eval(b)
	n := b.n
	nulls := orNulls(lc.nulls, rc.nulls, n)
	if v.out == store.KindInt {
		li, ri := lc.ints[:n], rc.ints[:n]
		out := make([]int64, n)
		switch v.op {
		case sql.OpAdd:
			for i := 0; i < n; i++ {
				out[i] = li[i] + ri[i]
			}
		case sql.OpSub:
			for i := 0; i < n; i++ {
				out[i] = li[i] - ri[i]
			}
		case sql.OpMul:
			for i := 0; i < n; i++ {
				out[i] = li[i] * ri[i]
			}
		}
		return vcol{kind: store.KindInt, ints: out, nulls: nulls}
	}
	lf, rf := asFloats(&lc, n), asFloats(&rc, n)
	out := make([]float64, n)
	switch v.op {
	case sql.OpAdd:
		for i := 0; i < n; i++ {
			out[i] = lf[i] + rf[i]
		}
	case sql.OpSub:
		for i := 0; i < n; i++ {
			out[i] = lf[i] - rf[i]
		}
	case sql.OpMul:
		for i := 0; i < n; i++ {
			out[i] = lf[i] * rf[i]
		}
	case sql.OpDiv:
		// Division by zero yields NULL, exactly like the scalar path.
		for i := 0; i < n; i++ {
			if rf[i] == 0 {
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[i] = true
				continue
			}
			out[i] = lf[i] / rf[i]
		}
	}
	return vcol{kind: store.KindFloat, floats: out, nulls: nulls}
}

type vneg struct {
	x   vexpr
	out store.Kind
}

func (v *vneg) kind() store.Kind { return v.out }

func (v *vneg) eval(b *vbatch) vcol {
	xc := v.x.eval(b)
	n := b.n
	var nulls []bool
	if xc.nulls != nil {
		nulls = make([]bool, n)
		copy(nulls, xc.nulls[:n])
	}
	if v.out == store.KindInt {
		out := make([]int64, n)
		for i, x := range xc.ints[:n] {
			out[i] = -x
		}
		return vcol{kind: store.KindInt, ints: out, nulls: nulls}
	}
	out := make([]float64, n)
	for i, x := range xc.floats[:n] {
		out[i] = -x
	}
	return vcol{kind: store.KindFloat, floats: out, nulls: nulls}
}

// ---- IS NULL / BETWEEN / IN / LIKE ----

type visnull struct {
	x       vexpr
	negated bool
}

func (v *visnull) kind() store.Kind { return store.KindBool }

func (v *visnull) eval(b *vbatch) vcol {
	xc := v.x.eval(b)
	n := b.n
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = xc.null(i) != v.negated
	}
	return vcol{kind: store.KindBool, bools: out}
}

// vbetween implements BETWEEN directly rather than as an AND of
// comparisons: the scalar path returns NULL whenever any operand is
// NULL, even when another bound already disqualifies the row.
type vbetween struct {
	x, lo, hi vexpr
	negated   bool
	text      bool
}

func (v *vbetween) kind() store.Kind { return store.KindBool }

func (v *vbetween) eval(b *vbatch) vcol {
	xc, loc, hic := v.x.eval(b), v.lo.eval(b), v.hi.eval(b)
	n := b.n
	nulls := orNulls(orNulls(xc.nulls, loc.nulls, n), hic.nulls, n)
	out := make([]bool, n)
	if v.text {
		if xc.dict != nil && loc.isConst && hic.isConst && n > 0 {
			lo, hi := loc.str(0), hic.str(0)
			res := make([]bool, len(xc.dict))
			for d, s := range xc.dict {
				res[d] = (s >= lo && s <= hi) != v.negated
			}
			codes := xc.codes[:n]
			for i := 0; i < n; i++ {
				out[i] = res[codes[i]]
			}
		} else if xc.dict == nil && loc.dict == nil && hic.dict == nil {
			xs, los, his := xc.strs[:n], loc.strs[:n], hic.strs[:n]
			for i := 0; i < n; i++ {
				in := xs[i] >= los[i] && xs[i] <= his[i]
				out[i] = in != v.negated
			}
		} else {
			for i := 0; i < n; i++ {
				x := xc.str(i)
				in := x >= loc.str(i) && x <= hic.str(i)
				out[i] = in != v.negated
			}
		}
	} else if xc.kind == store.KindInt && loc.kind == store.KindInt && hic.kind == store.KindInt {
		xs := xc.ints[:n]
		if loc.isConst && hic.isConst && n > 0 {
			lo, hi := loc.ints[0], hic.ints[0]
			for i := 0; i < n; i++ {
				in := xs[i] >= lo && xs[i] <= hi
				out[i] = in != v.negated
			}
		} else {
			los, his := loc.ints[:n], hic.ints[:n]
			for i := 0; i < n; i++ {
				in := xs[i] >= los[i] && xs[i] <= his[i]
				out[i] = in != v.negated
			}
		}
	} else {
		xf, lof, hif := asFloats(&xc, n), asFloats(&loc, n), asFloats(&hic, n)
		for i := 0; i < n; i++ {
			in := xf[i] >= lof[i] && xf[i] <= hif[i]
			out[i] = in != v.negated
		}
	}
	return vcol{kind: store.KindBool, bools: out, nulls: nulls}
}

// vin implements IN over a literal list. Elements are pre-bucketed by
// kind; elements whose kind cannot equal x contribute nothing (SQL
// equality across non-numeric kinds is false), while NULL elements
// force the not-found result to NULL.
type vin struct {
	x        vexpr
	negated  bool
	sawNull  bool
	intElems []int64
	fltElems []float64
	strElems []string
	hasTrue  bool
	hasFalse bool
}

func (v *vin) kind() store.Kind { return store.KindBool }

func (v *vin) eval(b *vbatch) vcol {
	xc := v.x.eval(b)
	n := b.n
	out := make([]bool, n)
	var nulls []bool
	if xc.nulls != nil {
		nulls = make([]bool, n)
		copy(nulls, xc.nulls[:n])
	}
	strIn := func(x string) bool {
		for _, e := range v.strElems {
			if x == e {
				return true
			}
		}
		return false
	}
	// Code space: membership computed once per dictionary entry, looked
	// up through the codes.
	var dictIn []bool
	if xc.kind == store.KindText && xc.dict != nil {
		dictIn = make([]bool, len(xc.dict))
		for d, s := range xc.dict {
			dictIn[d] = strIn(s)
		}
	}
	found := func(i int) bool {
		switch xc.kind {
		case store.KindInt:
			x := xc.ints[i]
			for _, e := range v.intElems {
				if x == e {
					return true
				}
			}
			for _, e := range v.fltElems {
				if float64(x) == e {
					return true
				}
			}
		case store.KindFloat:
			x := xc.floats[i]
			for _, e := range v.intElems {
				if x == float64(e) {
					return true
				}
			}
			for _, e := range v.fltElems {
				if x == e {
					return true
				}
			}
		case store.KindText:
			if dictIn != nil {
				return dictIn[xc.codes[i]]
			}
			return strIn(xc.strs[i])
		case store.KindBool:
			return (xc.bools[i] && v.hasTrue) || (!xc.bools[i] && v.hasFalse)
		}
		return false
	}
	for i := 0; i < n; i++ {
		if nulls != nil && nulls[i] {
			continue
		}
		switch {
		case found(i):
			out[i] = !v.negated
		case v.sawNull:
			if nulls == nil {
				nulls = make([]bool, n)
			}
			nulls[i] = true
		default:
			out[i] = v.negated
		}
	}
	return vcol{kind: store.KindBool, bools: out, nulls: nulls}
}

type vlike struct {
	x       vexpr
	pattern string
	negated bool
}

func (v *vlike) kind() store.Kind { return store.KindBool }

func (v *vlike) eval(b *vbatch) vcol {
	xc := v.x.eval(b)
	n := b.n
	out := make([]bool, n)
	var nulls []bool
	if xc.nulls != nil {
		nulls = make([]bool, n)
		copy(nulls, xc.nulls[:n])
	}
	// Code space: LIKE is matched once per dictionary entry.
	var dictRes []bool
	if xc.dict != nil {
		dictRes = make([]bool, len(xc.dict))
		for d, s := range xc.dict {
			dictRes[d] = strutil.MatchLike(s, v.pattern) != v.negated
		}
	}
	for i := 0; i < n; i++ {
		if nulls != nil && nulls[i] {
			continue
		}
		if dictRes != nil {
			out[i] = dictRes[xc.codes[i]]
			continue
		}
		out[i] = strutil.MatchLike(xc.strs[i], v.pattern) != v.negated
	}
	return vcol{kind: store.KindBool, bools: out, nulls: nulls}
}

// ---- compiler ----

// vcompiler compiles sql.Expr into vexprs. resolve is the leaf hook:
// it maps column references (and, for the aggregate output compiler,
// whole grouped/aggregate subexpressions) to columns. It returns
// handled=false to let structural compilation proceed, or handled=true
// with a nil vexpr to decline.
//
// Parameter slots resolve through the run's actual vector and decline
// on a missing slot, sending the expression to the evaluator fallback,
// which raises the unbound-parameter error — a plan executed without
// its vector must fail loudly, never silently filter on a stand-in.
type vcompiler struct {
	resolve func(e sql.Expr) (vexpr, bool)
	params  []store.Value
}

// compileRelWith builds a compiler over a relational row shape with
// the run's parameter vector bound.
func compileRelWith(rel *Rel, params []store.Value) *vcompiler {
	kinds := relKinds(rel)
	return &vcompiler{params: params, resolve: func(e sql.Expr) (vexpr, bool) {
		ref, ok := e.(sql.ColumnRef)
		if !ok {
			return nil, false
		}
		off, found, ambiguous := OffsetIn(rel, ref)
		if !found || ambiguous {
			// Unknown here: correlation into an outer frame, a pruned
			// column, or an ambiguous name — all evaluator territory.
			return nil, true
		}
		return &vcolRef{off: off, k: kinds[off]}, true
	}}
}

// paramVal resolves a parameter slot; ok is false when the run has no
// bound value for it.
func (c *vcompiler) paramVal(p sql.Param) (store.Value, bool) {
	if p.Idx >= 0 && p.Idx < len(c.params) {
		return c.params[p.Idx], true
	}
	return store.Value{}, false
}

func numericOrNull(k store.Kind) bool {
	return k == store.KindInt || k == store.KindFloat || k == store.KindNull
}

// compile lowers e to a vexpr; ok is false when e (or a subexpression)
// is not vectorizable.
func (c *vcompiler) compile(e sql.Expr) (vexpr, bool) {
	if ve, handled := c.resolve(e); handled {
		return ve, ve != nil
	}
	switch n := e.(type) {
	case sql.Literal:
		return &vconst{val: n.Val}, true
	case sql.Param:
		v, ok := c.paramVal(n)
		if !ok {
			return nil, false
		}
		return &vconst{val: v}, true
	case *sql.BinaryExpr:
		l, ok := c.compile(n.L)
		if !ok {
			return nil, false
		}
		r, ok := c.compile(n.R)
		if !ok {
			return nil, false
		}
		lk, rk := l.kind(), r.kind()
		switch {
		case n.Op == sql.OpAnd || n.Op == sql.OpOr:
			if (lk != store.KindBool && lk != store.KindNull) ||
				(rk != store.KindBool && rk != store.KindNull) {
				return nil, false
			}
			return &vlogic{and: n.Op == sql.OpAnd, l: l, r: r}, true
		case n.Op.IsComparison():
			if lk == store.KindNull || rk == store.KindNull {
				return allNull(), true
			}
			comparable := (numericOrNull(lk) && numericOrNull(rk)) || lk == rk
			if !comparable {
				return nil, false // cross-kind comparison: evaluator
			}
			return &vcmp{op: n.Op, l: l, r: r}, true
		default: // arithmetic
			if !numericOrNull(lk) || !numericOrNull(rk) {
				return nil, false
			}
			if lk == store.KindNull || rk == store.KindNull {
				return allNull(), true
			}
			out := store.KindFloat
			if n.Op != sql.OpDiv && lk == store.KindInt && rk == store.KindInt {
				out = store.KindInt
			}
			return &varith{op: n.Op, l: l, r: r, out: out}, true
		}
	case *sql.NotExpr:
		x, ok := c.compile(n.X)
		if !ok {
			return nil, false
		}
		switch x.kind() {
		case store.KindNull:
			return allNull(), true
		case store.KindBool:
			return &vnot{x: x}, true
		}
		// NOT over a non-boolean: the scalar path treats any non-TRUE
		// value as falsy; reproduce by declining to the evaluator.
		return nil, false
	case *sql.NegExpr:
		x, ok := c.compile(n.X)
		if !ok {
			return nil, false
		}
		switch x.kind() {
		case store.KindNull:
			return allNull(), true
		case store.KindInt, store.KindFloat:
			return &vneg{x: x, out: x.kind()}, true
		}
		return nil, false
	case *sql.IsNullExpr:
		x, ok := c.compile(n.X)
		if !ok {
			return nil, false
		}
		return &visnull{x: x, negated: n.Negated}, true
	case *sql.BetweenExpr:
		x, ok := c.compile(n.X)
		if !ok {
			return nil, false
		}
		lo, ok := c.compile(n.Lo)
		if !ok {
			return nil, false
		}
		hi, ok := c.compile(n.Hi)
		if !ok {
			return nil, false
		}
		ks := [3]store.Kind{x.kind(), lo.kind(), hi.kind()}
		for _, k := range ks {
			if k == store.KindNull {
				return allNull(), true
			}
		}
		allNum := numericOrNull(ks[0]) && numericOrNull(ks[1]) && numericOrNull(ks[2])
		allText := ks[0] == store.KindText && ks[1] == store.KindText && ks[2] == store.KindText
		if !allNum && !allText {
			return nil, false
		}
		return &vbetween{x: x, lo: lo, hi: hi, negated: n.Negated, text: allText}, true
	case *sql.InExpr:
		if n.Sub != nil {
			return nil, false
		}
		x, ok := c.compile(n.X)
		if !ok {
			return nil, false
		}
		if x.kind() == store.KindNull {
			return allNull(), true
		}
		in := &vin{x: x, negated: n.Negated}
		for _, le := range n.List {
			var val store.Value
			switch l := le.(type) {
			case sql.Literal:
				val = l.Val
			case sql.Param:
				var ok bool
				if val, ok = c.paramVal(l); !ok {
					return nil, false
				}
			default:
				return nil, false
			}
			switch val.Kind() {
			case store.KindNull:
				in.sawNull = true
			case store.KindInt:
				in.intElems = append(in.intElems, val.Int64())
			case store.KindFloat:
				f, _ := val.AsFloat()
				in.fltElems = append(in.fltElems, f)
			case store.KindText:
				in.strElems = append(in.strElems, val.Str())
			case store.KindBool:
				if val.BoolVal() {
					in.hasTrue = true
				} else {
					in.hasFalse = true
				}
			}
		}
		return in, true
	case *sql.LikeExpr:
		x, ok := c.compile(n.X)
		if !ok {
			return nil, false
		}
		var pat store.Value
		switch p := n.Pattern.(type) {
		case sql.Literal:
			pat = p.Val
		case sql.Param:
			var ok bool
			if pat, ok = c.paramVal(p); !ok {
				return nil, false
			}
		default:
			return nil, false
		}
		if x.kind() == store.KindNull || pat.IsNull() {
			return allNull(), true
		}
		if x.kind() != store.KindText || pat.Kind() != store.KindText {
			return nil, false
		}
		return &vlike{x: x, pattern: pat.Str(), negated: n.Negated}, true
	}
	// FuncCall (aggregates), subqueries, EXISTS: evaluator.
	return nil, false
}

// ---- typed hashing ----

// mix64 is a splitmix64-style finalizer used to build composite
// 64-bit hash keys without string concatenation.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

const (
	hashNullTag = 0x9e3779b97f4a7c15
	hashNaNTag  = 0x2545f4914f6cdd1d
	hashTrue    = 0x9e3779b97f4a7c16
	hashFalse   = 0x9e3779b97f4a7c17
)

func hashFloat(f float64) uint64 {
	if f != f { // NaN
		return hashNaNTag
	}
	if f == 0 { // fold -0.0 onto 0.0
		f = 0
	}
	return mix64(math.Float64bits(f))
}

func hashString(s string) uint64 {
	// FNV-1a, 64-bit.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// hashCol folds column c (rows [0, n)) into the per-row hash
// accumulators hs. Numeric values hash through their canonical float64
// form, so an INT key column and a FLOAT key column hash equal values
// identically (matching Value.Key equality for joins).
func hashCol(c *vcol, n int, hs []uint64) {
	// Code space: hash each dictionary entry once, gather through the
	// codes — GROUP BY and join keys on dictionary columns never hash
	// the same string twice per batch.
	var dictH []uint64
	if c.kind == store.KindText && c.dict != nil {
		dictH = make([]uint64, len(c.dict))
		for d, s := range c.dict {
			dictH[d] = hashString(s)
		}
	}
	for i := 0; i < n; i++ {
		var h uint64
		switch {
		case c.kind == store.KindNull || c.null(i):
			h = hashNullTag
		case c.kind == store.KindInt:
			h = hashFloat(float64(c.ints[i]))
		case c.kind == store.KindFloat:
			h = hashFloat(c.floats[i])
		case c.kind == store.KindText:
			if dictH != nil {
				h = dictH[c.codes[i]]
			} else {
				h = hashString(c.strs[i])
			}
		default:
			if c.bools[i] {
				h = hashTrue
			} else {
				h = hashFalse
			}
		}
		hs[i] = mix64(hs[i] ^ h)
	}
}

// eqVals compares value i of column a with value j of column b under
// key-equality semantics: NULLs equal each other (grouping semantics —
// join kernels exclude NULL keys before probing), numerics compare
// consistently with Value.Key equality, and NaN equals NaN (one group,
// matching Value.Key's "NaN" key string).
func eqVals(a *vcol, i int, b *vcol, j int) bool {
	an := a.kind == store.KindNull || a.null(i)
	bn := b.kind == store.KindNull || b.null(j)
	if an || bn {
		return an && bn
	}
	switch a.kind {
	case store.KindInt:
		switch b.kind {
		case store.KindInt:
			return a.ints[i] == b.ints[j]
		case store.KindFloat:
			return keyEqIntFloat(a.ints[i], b.floats[j])
		}
	case store.KindFloat:
		switch b.kind {
		case store.KindInt:
			return keyEqIntFloat(b.ints[j], a.floats[i])
		case store.KindFloat:
			x, y := a.floats[i], b.floats[j]
			return x == y || (x != x && y != y)
		}
	case store.KindText:
		if b.kind == store.KindText {
			if len(a.dict) > 0 && len(b.dict) > 0 && &a.dict[0] == &b.dict[0] {
				// Same dictionary (columns from one segment): codes
				// decide equality without touching the strings.
				return a.codes[i] == b.codes[j]
			}
			return a.str(i) == b.str(j)
		}
	case store.KindBool:
		if b.kind == store.KindBool {
			return a.bools[i] == b.bools[j]
		}
	}
	return false
}

// keyEqIntFloat mirrors Value.Key equality between an integer and a
// float: equal exactly when the float holds the same integral value.
func keyEqIntFloat(i int64, f float64) bool {
	return f == float64(int64(f)) && int64(f) == i && f == float64(i)
}

// ---- column builders ----

// colbuf accumulates rows into a growing typed column — the builder
// behind join build sides, GROUP BY key sets, DISTINCT seen sets and
// sort buffers.
type colbuf struct {
	kind    store.Kind
	ints    []int64
	floats  []float64
	strs    []string
	bools   []bool
	nulls   []bool
	anyNull bool
}

func newColbuf(kind store.Kind) *colbuf { return &colbuf{kind: kind} }

func (cb *colbuf) len() int { return len(cb.nulls) }

// widen adopts kind k for a builder that has seen only NULLs so far
// (kind KindNull), backfilling zero payload under those NULLs. An
// evaluator-fallback column learns its kind from its first non-NULL
// value, so a consumer that typed its buffer from an all-NULL batch
// converts on the first real value.
func (cb *colbuf) widen(k store.Kind) {
	if cb.kind != store.KindNull || k == store.KindNull {
		return
	}
	cb.kind = k
	n := len(cb.nulls)
	switch k {
	case store.KindInt:
		cb.ints = make([]int64, n)
	case store.KindFloat:
		cb.floats = make([]float64, n)
	case store.KindText:
		cb.strs = make([]string, n)
	case store.KindBool:
		cb.bools = make([]bool, n)
	}
}

// push appends value i of src.
func (cb *colbuf) push(src *vcol, i int) {
	isNull := src.kind == store.KindNull || src.null(i)
	if !isNull {
		cb.widen(src.kind)
	}
	cb.nulls = append(cb.nulls, isNull)
	if isNull {
		cb.anyNull = true
	}
	switch cb.kind {
	case store.KindInt:
		var v int64
		if !isNull {
			v = src.ints[i]
		}
		cb.ints = append(cb.ints, v)
	case store.KindFloat:
		var v float64
		if !isNull {
			v = src.floats[i]
		}
		cb.floats = append(cb.floats, v)
	case store.KindText:
		var v string
		if !isNull {
			v = src.str(i)
		}
		cb.strs = append(cb.strs, v)
	case store.KindBool:
		var v bool
		if !isNull {
			v = src.bools[i]
		}
		cb.bools = append(cb.bools, v)
	}
}

// pushBoxed appends an evaluator result. The column's kind is fixed
// by its first non-NULL value (see widen); a later value of another
// kind is an error rather than a silent coercion.
func (cb *colbuf) pushBoxed(v store.Value) error {
	isNull := v.IsNull()
	if !isNull {
		cb.widen(v.Kind())
		if v.Kind() != cb.kind {
			return fmt.Errorf("plan: expression yields both %s and %s values", cb.kind, v.Kind())
		}
	}
	cb.nulls = append(cb.nulls, isNull)
	if isNull {
		cb.anyNull = true
	}
	switch cb.kind {
	case store.KindInt:
		cb.ints = append(cb.ints, v.Int64())
	case store.KindFloat:
		f, _ := v.AsFloat()
		cb.floats = append(cb.floats, f)
	case store.KindText:
		cb.strs = append(cb.strs, v.Str())
	case store.KindBool:
		cb.bools = append(cb.bools, v.BoolVal())
	}
	return nil
}

// col freezes the builder into a column.
func (cb *colbuf) col() vcol {
	out := vcol{kind: cb.kind, ints: cb.ints, floats: cb.floats,
		strs: cb.strs, bools: cb.bools}
	if cb.anyNull {
		out.nulls = cb.nulls
	}
	return out
}

// gatherCol materializes src rows idxs into a dense column. This is
// the join-output and projection hot path, so each kind gathers
// through a tight preallocated loop.
func gatherCol(src *vcol, idxs []int32) vcol {
	n := len(idxs)
	out := vcol{kind: src.kind}
	if src.nulls != nil {
		nulls := make([]bool, n)
		any := false
		for k, i := range idxs {
			if src.nulls[i] {
				nulls[k] = true
				any = true
			}
		}
		if any {
			out.nulls = nulls
		}
	}
	switch src.kind {
	case store.KindInt:
		arr := make([]int64, n)
		for k, i := range idxs {
			arr[k] = src.ints[i]
		}
		out.ints = arr
	case store.KindFloat:
		arr := make([]float64, n)
		for k, i := range idxs {
			arr[k] = src.floats[i]
		}
		out.floats = arr
	case store.KindText:
		if src.dict != nil {
			// Late materialization: gather codes, share the dictionary —
			// strings are only built when a consumer finally asks.
			arr := make([]int32, n)
			for k, i := range idxs {
				arr[k] = src.codes[i]
			}
			out.codes, out.dict = arr, src.dict
			break
		}
		arr := make([]string, n)
		for k, i := range idxs {
			arr[k] = src.strs[i]
		}
		out.strs = arr
	case store.KindBool:
		arr := make([]bool, n)
		for k, i := range idxs {
			arr[k] = src.bools[i]
		}
		out.bools = arr
	case store.KindNull:
		nulls := make([]bool, n)
		for k := range nulls {
			nulls[k] = true
		}
		out.nulls = nulls
	}
	return out
}
