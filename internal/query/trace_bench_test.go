package query

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/filter"
	"repro/internal/obs"
)

// traceOverheadOps builds the push-down evaluation of Figure 1's query
// in its two traced forms. "unsampled" threads a bare context (no span
// attached), which is the steady state for every request the sampler
// skips — it must cost the same as no tracing at all. "sampled" runs
// under a live recorder-backed trace, paying for the span tree and
// per-stage timing attribution.
func traceOverheadOps(tb testing.TB) (unsampled, sampled func()) {
	x := figure1Index(tb)
	q := MustNew([]string{"XQuery", "optimization"}, filter.MaxSize(3))
	opts := Options{Strategy: cost.PushDown}
	unsampled = func() {
		if _, err := EvaluateContext(context.Background(), x, q, opts); err != nil {
			tb.Fatal(err)
		}
	}
	rec := obs.NewRecorder(4, 0)
	sampled = func() {
		tr := rec.StartTrace("bench", "trace overhead", obs.TraceID{})
		ctx := obs.ContextWithTrace(context.Background(), tr)
		res, err := EvaluateContext(ctx, x, q, opts)
		if err != nil {
			tb.Fatal(err)
		}
		tr.Finish(res.Answers.Len())
	}
	return unsampled, sampled
}

// BenchmarkTraceOverhead measures the cost of the tracing plumbing on
// the push-down hot path.
func BenchmarkTraceOverhead(b *testing.B) {
	unsampled, sampled := traceOverheadOps(b)
	for _, bc := range []struct {
		name string
		op   func()
	}{{"unsampled", unsampled}, {"sampled", sampled}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.op()
			}
		})
	}
}

// TestTraceOverheadZeroAlloc pins the acceptance bar for the sampler:
// an unsampled request (context without a span) must not allocate a
// single byte more than the plain path. Any regression here means the
// tracing hooks leaked onto the hot path. Both benchmark rows are
// pinned at their counts too, so one more allocation per evaluation,
// traced or not, fails.
func TestTraceOverheadZeroAlloc(t *testing.T) {
	runtime.GC() // the first collection allocates its mark workers
	x := figure1Index(t)
	q := MustNew([]string{"XQuery", "optimization"}, filter.MaxSize(3))
	opts := Options{Strategy: cost.PushDown}
	plain := testing.AllocsPerRun(50, func() {
		if _, err := Evaluate(x, q, opts); err != nil {
			t.Fatal(err)
		}
	})
	unsampledOp, sampledOp := traceOverheadOps(t)
	unsampled := testing.AllocsPerRun(50, unsampledOp)
	if unsampled > plain {
		t.Fatalf("unsampled traced path allocates more than plain: %.1f > %.1f allocs/op", unsampled, plain)
	}
	if raceEnabled {
		return
	}
	if unsampled != 65 {
		t.Errorf("unsampled evaluation allocates %.0f times, pinned at 65", unsampled)
	}
	if sampled := testing.AllocsPerRun(50, sampledOp); sampled != 112 {
		t.Errorf("sampled evaluation allocates %.0f times, pinned at 112", sampled)
	}
}
