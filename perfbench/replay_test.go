package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dialog"
)

// For every distinct input of every workload, the layer-by-layer replay
// reproduces the SQL and the rows of the call it attributes time for.
func TestReplayMatchesAsk(t *testing.T) {
	for _, w := range []string{"ask-cold", "ask-scaled", "ask-spilled"} {
		t.Run(w, func(t *testing.T) {
			if testing.Short() && w != "ask-cold" {
				t.Skip("builds a large dataset")
			}
			env, _, err := setupAsk(w, t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer env.close()
			reps := map[string]*replayer{}
			for name, e := range env.engines {
				reps[name] = newReplayer(e)
			}
			tr := newTracer()
			for i, in := range askInputs(config{workload: w, seed: 1}) {
				ans, err := env.engines[in.Domain].Ask(in.Text)
				got, err := outcome(ans, err)
				if err != nil {
					t.Fatalf("%q: %v", in.Text, err)
				}
				out, err := reps[in.Domain].ask(tr, i+1, 0, in.Text, nil, false)
				if err != nil {
					t.Fatalf("replaying %q: %v", in.Text, err)
				}
				if !sameAsRoot(out, ans, got) {
					t.Errorf("replay of %q: sql %q refused %v, ask gave %v", in.Text, out.sql, out.refused, ans.SQL)
				}
			}
		})
	}

	t.Run("serve-mixed", func(t *testing.T) {
		db := dataset.University(serveScale)
		opts := core.DefaultOptions()
		opts.AnswerCacheSize = 0
		eng := core.NewEngine(db, opts)
		rep := newReplayer(eng)
		tr := newTracer()
		pools := serveInputs(1, readServeData(db.Snapshot()))
		convs := map[int]*core.Conversation{}
		sessions := map[int]*dialog.Session{}
		for i, in := range pools.Inputs {
			var ans *core.Answer
			var err error
			var sess *dialog.Session
			if in.Dialogue < 0 {
				ans, err = eng.Ask(in.Text)
			} else {
				if convs[in.Dialogue] == nil {
					convs[in.Dialogue] = eng.NewConversation()
					sessions[in.Dialogue] = dialog.NewSession(eng.G, db.Schema, opts.Weights)
				}
				sess = sessions[in.Dialogue]
				ans, _, err = convs[in.Dialogue].Ask(in.Text)
			}
			if err != nil {
				t.Fatalf("%q: %v", in.Text, err)
			}
			out, err := rep.ask(tr, i+1, 0, in.Text, sess, false)
			if err != nil {
				t.Fatalf("replaying %q: %v", in.Text, err)
			}
			if !sameAsRoot(out, ans, digestResult(ans.Result)) {
				t.Errorf("replay of %q: sql %q, ask gave %v", in.Text, out.sql, ans.SQL)
			}
		}
	})
}
