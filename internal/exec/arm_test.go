package exec

// Internal regression tests for executor.arm — the contract that
// Background/TODO contexts keep the zero-overhead nil signal while any
// context carrying a Done channel always arms the executor. The
// external halves (observable cancellation through
// RunBoundCountedAtCtx) live in ctx_test.go; these pin the signal
// wiring itself so a refactor cannot silently disconnect it.

import (
	"context"
	"testing"
	"time"

	"repro/internal/dataset"
)

func TestArmSignal(t *testing.T) {
	sn := dataset.University(1).Snapshot()

	// Background and TODO: Done() is nil, the signal must stay nil so
	// unserved runs take the checkpoint-free operator paths.
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"nil", nil},
		{"background", context.Background()},
		{"todo", context.TODO()},
	} {
		ex := newExecutor(sn)
		ex.arm(tc.ctx)
		if ex.done != nil || ex.cause != nil {
			t.Errorf("%s context armed the executor; want nil signal", tc.name)
		}
	}

	// Any Done-bearing context arms: cancelable, deadline-bearing, and
	// values derived from them.
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	deadlined, dcancel := context.WithTimeout(context.Background(), time.Hour)
	defer dcancel()
	derived := context.WithValue(cancelable, struct{}{}, "v")
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"cancelable", cancelable},
		{"deadline", deadlined},
		{"derived", derived},
	} {
		ex := newExecutor(sn)
		ex.arm(tc.ctx)
		if ex.done == nil {
			t.Errorf("%s context did not arm the executor", tc.name)
			continue
		}
		if ex.cause == nil {
			t.Errorf("%s context armed without a cause callback", tc.name)
		}
	}

	// The armed cause callback reports the context's actual cause.
	cctx, ccancel := context.WithCancelCause(context.Background())
	ex := newExecutor(sn)
	ex.arm(cctx)
	wantErr := context.Canceled
	ccancel(nil)
	if ex.cause == nil {
		t.Fatal("cause callback missing")
	}
	if got := ex.cause(); got != wantErr {
		t.Errorf("cause() = %v, want %v", got, wantErr)
	}
}
