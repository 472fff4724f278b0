// The context-aware execution entry point. The serving layer threads
// each HTTP request's context down to the operator loops through
// RunBoundCountedAtCtx. Per the ctxfirst contract (enforced by nlivet),
// every exported ...Ctx function takes the context as its first
// parameter and nothing stores a context in a struct — the executor
// carries only the context's Done channel and a context.Cause callback.

package exec

import (
	"context"

	"repro/internal/plan"
	"repro/internal/store"
)

// RunBoundCountedAtCtx executes a compiled plan — the one plan-
// execution entry point. Callers pass nil or 0 for what they do not
// use:
//
//   - ctx: the run observes cancellation at batch granularity (leaf
//     scans, materialize loops, exchange morsel claims) and returns
//     context.Cause(ctx) promptly; context.Background() costs nothing.
//   - params: the parameter vector a prepared plan binds; nil for plans
//     compiled from fully-literal statements.
//   - par: an execution-time parallelism cap. 0 runs at the plan's
//     compiled degree, 1 sheds a parallel plan to serial execution
//     (Exchange collapses to a passthrough, results stay row-for-row
//     identical), other values cap the worker count — so a load-shed
//     ask reuses the cached parallel plan without recompiling.
//   - segc, partc: runtime counters; segc accumulates segments decoded
//     vs skipped by zone maps, partc partitions read vs pruned, across
//     every scan of the run including subqueries and parallel workers.
//
// Pass the snapshot the plan was compiled on, so plan-time choices
// (index scans, estimates) and run-time data agree exactly.
func RunBoundCountedAtCtx(ctx context.Context, sn *store.Snapshot, p *plan.Plan, params []store.Value, par int,
	segc *store.SegCounters, partc *store.PartCounters) (*Result, error) {
	ex := newExecutor(sn)
	ex.params = params
	ex.par = par
	ex.segC = segc
	ex.partC = partc
	ex.arm(ctx)
	return ex.run(p, nil)
}

// arm points the executor's cancellation signal at ctx. The contract,
// pinned by TestArmSignal:
//
//   - context.Background(), context.TODO(), and any other context whose
//     Done() returns nil keep the executor's signal nil — the unserved
//     paths (tests, benchmarks, nlibench, the context-free APIs) pay
//     zero cancellation overhead, because plan's checkpoint wrapper
//     (ctxViter) returns iterators unchanged when Done is nil;
//   - any context with a Done channel — cancelable, deadline-bearing,
//     or derived from one — always arms the executor, so every
//     iterator checkpoint, exchange morsel claim and segment fault-in
//     wait observes it.
func (ex *executor) arm(ctx context.Context) {
	if ctx == nil {
		return
	}
	if done := ctx.Done(); done != nil {
		ex.done = done
		ex.cause = func() error { return context.Cause(ctx) }
	}
}
