// Package exec evaluates SQL ASTs (internal/sql) against the in-memory
// store (internal/store). Queries are compiled by internal/plan into a
// cost-optimized operator tree (predicate pushdown, column pruning,
// index-aware join ordering) and executed by plan's batch-at-a-time
// operators; this package contributes the scalar-expression evaluator
// those operators fall back to for what their vector programs do not
// cover — IN/EXISTS and scalar subqueries including correlated ones,
// and aggregates over a group's rows — besides the entry points that
// compile, bind and run statements.
//
// Evaluation uses collapsed three-valued logic: comparisons involving
// NULL yield NULL, AND/OR/NOT propagate NULL, and a WHERE/HAVING accepts
// a row only when the predicate is exactly TRUE.
//
// ReferenceQuery preserves the pre-planner execution strategy
// (materialize the full join product, then filter) as the
// differential-testing oracle.
package exec

import (
	"sync"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/store"
)

// Result is the output of a query.
type Result struct {
	Cols []string
	Rows []store.Row
}

// Query evaluates stmt against db through the planning layer,
// serially. A snapshot of the database is pinned for the whole query
// (planning, execution, every subquery): concurrent writers never
// change what an in-flight query sees.
func Query(db *store.DB, stmt *sql.SelectStmt) (*Result, error) {
	return QueryAt(db.Snapshot(), stmt)
}

// QueryAt is Query against an already-pinned snapshot — the form used
// when the caller needs several operations to observe the same data
// version.
func QueryAt(sn *store.Snapshot, stmt *sql.SelectStmt) (*Result, error) {
	p, err := plan.Compile(sn, stmt)
	if err != nil {
		return nil, err
	}
	return newExecutor(sn).run(p, nil)
}

// BuildPlanParallelAt compiles stmt against a pinned snapshot and
// rewrites the plan for intra-query parallelism at degree par (see
// plan.Parallelize for when the rewrite declines; par <= 1 leaves the
// serial plan). Run it with RunBoundCountedAtCtx, passing the same
// snapshot so plan-time choices and run-time data agree exactly.
func BuildPlanParallelAt(sn *store.Snapshot, stmt *sql.SelectStmt, par int) (*plan.Plan, error) {
	p, err := plan.Compile(sn, stmt)
	if err != nil {
		return nil, err
	}
	return plan.Parallelize(sn, p, par), nil
}

// executor evaluates expressions for plan operators and runs nested
// subqueries, memoizing uncorrelated subquery results (keyed by
// statement: a correlated subquery never reaches the cache) and
// compiled subquery plans. It holds the query's pinned snapshot: the outer
// plan, every subquery plan and every subquery run read the same data
// version, so a query's parts can never observe different writes.
// Parallel plans call Eval/EvalGroup from multiple exchange workers at
// once, so every cache access takes mu; the cached values themselves
// are immutable once published. Two workers racing on the same cold
// entry may both compute it — the duplicated work is bounded and the
// first result published is the one every later probe sees.
type executor struct {
	sn        *store.Snapshot
	mu        sync.Mutex
	subCache  map[*sql.SelectStmt]*subResult
	planCache map[*sql.SelectStmt]*plan.Plan
	corrCache map[*sql.SelectStmt]bool // memoized correlation verdicts
	reference bool                     // route subqueries through the reference path too
	segC      *store.SegCounters       // optional segment scan/skip counters
	partC     *store.PartCounters      // optional partition scan/prune counters

	// params is the parameter vector of a prepared execution: the
	// values sql.Param slots evaluate to, shared by the outer plan and
	// every subquery (slots are numbered across the whole statement
	// tree). nil for fully-literal statements.
	params []store.Value

	// done and cause carry a served request's cancellation signal into
	// plan.Ctx — the Done channel and context.Cause of the request's
	// context, extracted by the ...Ctx entry points. They are channel
	// and callback, not a stored context (the ctxfirst rule): contexts
	// flow through call chains, never into struct fields.
	done  <-chan struct{}
	cause func() error

	// par, when > 0, caps the execution-time parallel degree (plan.Ctx
	// Par) below the plan's compiled degree. The serving layer uses
	// par=1 to shed a cached parallel plan to serial execution under
	// load without recompiling it — Exchange degrades to a passthrough
	// when its worker cap is 1.
	par int
}

func newExecutor(sn *store.Snapshot) *executor {
	return &executor{
		sn:        sn,
		subCache:  map[*sql.SelectStmt]*subResult{},
		planCache: map[*sql.SelectStmt]*plan.Plan{},
		corrCache: map[*sql.SelectStmt]bool{},
	}
}

func (ex *executor) run(p *plan.Plan, parent *plan.Frame) (*Result, error) {
	rows, err := plan.Run(p, &plan.Ctx{Snap: ex.sn, Ev: ex, Parent: parent,
		SegC: ex.segC, PartC: ex.partC,
		Params: ex.params, Par: ex.par, Done: ex.done, Cause: ex.cause})
	if err != nil {
		return nil, err
	}
	return &Result{Cols: p.Cols, Rows: rows}, nil
}

// selectStmt executes a (sub)query, compiling and caching its plan.
// Plans depend only on the statement and the database, never on the
// outer row, so correlated subqueries recompile nothing per row.
// Subquery plans are never parallelized: the top-level exchange
// already saturates the worker budget.
func (ex *executor) selectStmt(stmt *sql.SelectStmt, parent *plan.Frame) (*Result, error) {
	if ex.reference {
		return ex.referenceSelect(stmt, parent)
	}
	ex.mu.Lock()
	p, ok := ex.planCache[stmt]
	ex.mu.Unlock()
	if !ok {
		var err error
		p, err = plan.CompileWith(ex.sn, stmt, ex.params)
		if err != nil {
			return nil, err
		}
		ex.mu.Lock()
		ex.planCache[stmt] = p
		ex.mu.Unlock()
	}
	return ex.run(p, parent)
}

// isTrue collapses 3VL to acceptance.
func isTrue(v store.Value) bool { return plan.IsTrue(v) }
