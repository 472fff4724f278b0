package main

import (
	"bytes"
	"testing"
	"time"
)

// A short run of each small workload, untraced and traced, checks every
// answer, reports every metric and fails nothing. Run it under -race:
// serve-mixed drives the server from two clients.
func TestShortRuns(t *testing.T) {
	for _, w := range []string{"ask-cold", "serve-mixed"} {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 1, window: time.Second, traced: traced, scratch: t.TempDir()}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			res := lastLine(t, out.String())
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s",
					w, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
		}
	}
}
