package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dialog"
	"repro/internal/exec"
	"repro/internal/grammar"
	"repro/internal/interp"
	"repro/internal/iql"
	"repro/internal/nlg"
	"repro/internal/plan"
	"repro/internal/semindex"
	"repro/internal/sql"
	"repro/internal/store"
	"repro/internal/strutil"
)

// replayer re-runs core's question pipeline for one engine through the
// public call of each layer, in core's order, recording one span per
// call. The engine itself is never instrumented: the root call (Ask or
// ServeHTTP) is timed as a whole, and the replay that follows it
// attributes that time to layers. The replay keeps its own shape-keyed
// template map, validated against table versions the way core's plan
// cache is, so templates compile and bind where core's would.
type replayer struct {
	e     *core.Engine
	opts  core.Options
	plans map[string]*replayPlan
	segC  store.SegCounters
	partC store.PartCounters

	// key and params are reused shape scratch, as core pools its own,
	// so the bind path allocates no more than core's does.
	key    []byte
	params []store.Value
}

type replayPlan struct {
	pq   *exec.PreparedQuery
	deps map[string]uint64
}

func newReplayer(e *core.Engine) *replayer {
	return &replayer{e: e, opts: e.Options(), plans: map[string]*replayPlan{}}
}

// replayOut is what the replay produced, for comparison with the root
// call: the SQL text and result digest, or refused when the pipeline
// declined the question.
type replayOut struct {
	refused  bool
	followUp bool
	sql      string
	rows     digest
}

// call times one layer call as a span under parent.
func call(tr *tracer, req, parent int, name string, f func() map[string]int64) int {
	start := time.Now()
	counts := f()
	return tr.record(req, parent, name, start, time.Now(), counts)
}

// ask replays one question. With sess == nil it mirrors Engine.Ask;
// otherwise it mirrors one Conversation turn on that dialogue session.
// cached reports that the root call was an answer-cache hit: core then
// stops after correction (and, in a conversation, after the dialogue
// turn that precedes the cache lookup), and so does the replay.
func (r *replayer) ask(tr *tracer, req, parent int, question string, sess *dialog.Session, cached bool) (replayOut, error) {
	var out replayOut
	var toks []strutil.Token
	call(tr, req, parent, "strutil.tokenize", func() map[string]int64 {
		toks = strutil.Tokenize(question)
		return nil
	})
	call(tr, req, parent, "semindex.correct", func() map[string]int64 {
		if r.opts.SpellMaxDist <= 0 {
			return nil
		}
		var fixes []semindex.Correction
		toks, fixes = r.e.Idx.Correct(toks, r.opts.SpellMaxDist)
		return map[string]int64{"corrections": int64(len(fixes))}
	})

	var q *iql.Query
	if sess != nil {
		var turn *dialog.Turn
		var err error
		call(tr, req, parent, "dialog.turn", func() map[string]int64 {
			turn, err = sess.AskTokens(toks)
			if err != nil {
				return nil
			}
			out.followUp = turn.FollowUp
			return map[string]int64{"follow_up": b2i(turn.FollowUp), "interpretations": int64(len(turn.Ranked))}
		})
		if err != nil {
			out.refused = true
			return out, nil
		}
		if cached && !turn.FollowUp {
			return out, nil
		}
		q = turn.Query
	} else {
		if cached {
			return out, nil
		}
		var prepared grammar.Prepared
		call(tr, req, parent, "grammar.prepare", func() map[string]int64 {
			prepared = r.e.G.Prepare(toks)
			return nil
		})
		var cands []grammar.Candidate
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id := call(tr, req, parent, "grammar.parse", func() map[string]int64 {
			cands = r.e.G.ParsePrepared(prepared)
			return nil
		})
		runtime.ReadMemStats(&after)
		tr.spans[id-1].Counts = map[string]int64{
			"candidates": int64(len(cands)),
			"allocs":     int64(after.Mallocs - before.Mallocs),
		}
		if len(cands) == 0 {
			out.refused = true
			return out, nil
		}
		var ranked []interp.Scored
		call(tr, req, parent, "interp.rank", func() map[string]int64 {
			ranked = interp.Rank(cands, r.e.DB.Schema, r.opts.Weights)
			return map[string]int64{"interpretations": int64(len(ranked))}
		})
		if len(ranked) == 0 {
			out.refused = true
			return out, nil
		}
		q = ranked[0].Query
	}

	var stmt *sql.SelectStmt
	var err error
	call(tr, req, parent, "iql.generate", func() map[string]int64 {
		stmt, err = iql.ToSQL(q, r.e.DB.Schema)
		return nil
	})
	if err != nil {
		return out, fmt.Errorf("replay: generating SQL: %w", err)
	}
	out.sql = stmt.String()

	var sn *store.Snapshot
	call(tr, req, parent, "store.snapshot", func() map[string]int64 {
		sn = r.e.DB.Snapshot()
		return nil
	})
	p, params, err := r.plan(tr, req, parent, stmt, sn)
	if err != nil {
		return out, err
	}
	var res *exec.Result
	call(tr, req, parent, "exec.run", func() map[string]int64 {
		res, err = exec.RunBoundCountedAtCtx(context.Background(), sn, p, params, 0, &r.segC, &r.partC)
		if err != nil {
			return nil
		}
		return map[string]int64{"rows_out": int64(len(res.Rows))}
	})
	if err != nil {
		return out, fmt.Errorf("replay: executing: %w", err)
	}
	call(tr, req, parent, "nlg.respond", func() map[string]int64 {
		_ = nlg.Paraphrase(q, r.e.DB.Schema)
		_ = nlg.Respond(q, res, r.e.DB.Schema)
		return nil
	})
	out.rows = digestResult(res)
	return out, nil
}

// plan mirrors core's planFor with the plan cache on: a shape whose
// template is cached and whose tables have not moved binds; anything
// else compiles and caches a fresh template. A bind that had to
// recompile is recorded as a compile, as core reports it.
func (r *replayer) plan(tr *tracer, req, parent int, stmt *sql.SelectStmt, sn *store.Snapshot) (*plan.Plan, []store.Value, error) {
	start := time.Now()
	keyBytes, params := sql.ShapeInto(stmt, r.key[:0], r.params[:0])
	r.key, r.params = keyBytes[:0], params[:0]
	if rp := r.plans[string(keyBytes)]; rp != nil && rp.fresh(sn) {
		p, reused, err := rp.pq.BindPinned(sn, params, r.opts.Parallelism)
		if err == nil {
			name := "plan.bind"
			if !reused {
				name = "plan.compile"
			}
			tr.record(req, parent, name, start, time.Now(), map[string]int64{"vec": b2i(p.Vec)})
			// Execution outlives the scratch; the copy is made after
			// the span ends, as core makes it outside its timing.
			return p, append([]store.Value(nil), params...), nil
		}
	}
	key := string(keyBytes)
	tmpl, bound := sql.Parameterize(stmt)
	pq, err := exec.PrepareTemplateAt(sn, tmpl, bound, r.opts.Parallelism)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: planning: %w", err)
	}
	deps := map[string]uint64{}
	for _, t := range sql.Tables(tmpl) {
		deps[t] = sn.TableVersion(t)
	}
	r.plans[key] = &replayPlan{pq: pq, deps: deps}
	p := pq.Tmpl.Plan()
	tr.record(req, parent, "plan.compile", start, time.Now(), map[string]int64{"vec": b2i(p.Vec)})
	return p, bound, nil
}

func (rp *replayPlan) fresh(sn *store.Snapshot) bool {
	for t, v := range rp.deps {
		if sn.TableVersion(t) != v {
			return false
		}
	}
	return true
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
