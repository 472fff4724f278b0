package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/store"
)

// The verified outcome every timed ask is checked against is the
// reference result, not the engine's own answer, and only a typo
// variant may be refused.
func TestVerifyExpectsTheReference(t *testing.T) {
	db := dataset.University(1)
	eng := core.NewEngine(db, core.DefaultOptions())
	sn := db.Snapshot()
	ask := func(in askInput) answered {
		ans, err := eng.Ask(in.Text)
		return answered{in: in, sn: sn, ans: ans, err: err}
	}
	const nonsense = "purple elephants dance quietly"
	good := ask(askInput{Text: "how many students are in Computer Science", Dialogue: -1})
	if good.err != nil {
		t.Fatal(good.err)
	}
	// A wrong answer: the engine's result with its count changed.
	wrong := good
	res := *good.ans.Result
	res.Rows = []store.Row{{store.Int(-1)}}
	ans := *good.ans
	ans.Result = &res
	wrong.ans = &ans

	answers := []answered{
		good,
		wrong,
		ask(askInput{Text: nonsense, Dialogue: -1}),
		ask(askInput{Text: nonsense, Typo: true, Dialogue: -1}),
	}
	if d, err := outcome(answers[2].ans, answers[2].err); err != nil || d != refused {
		t.Fatalf("%q: outcome %v, %v; want a refusal", nonsense, d, err)
	}
	ver, err := verify(answers)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(ver.failures, "\n")
	if len(ver.failures) != 2 ||
		!strings.Contains(joined, "differs from the reference: how many") ||
		!strings.Contains(joined, "refused: "+nonsense) {
		t.Fatalf("failures %q; want the wrong answer and the refused non-typo input", ver.failures)
	}
	if ver.want[1] != ver.want[0] || ver.want[1] == digestResult(&res) {
		t.Error("a wrong answer is expected as itself, not as the reference result")
	}
	if ver.want[2] != unanswered || ver.want[3] != refused || ver.typosOff != 1 {
		t.Errorf("refusals expected as %v and %v (%d typo variants); want unanswered and refused (1)",
			ver.want[2], ver.want[3], ver.typosOff)
	}
}
