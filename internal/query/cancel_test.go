package query

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/filter"
	"repro/internal/index"
	"repro/internal/xmltree"
)

// adversarialIndex builds a star document with n occurrences of each
// query term scattered under one root: every pair of seeds joins
// through the root and every subset yields a distinct fragment, so an
// unfiltered evaluation is worst-case exponential — the document that
// motivates both the fragment budget and cooperative cancellation.
func adversarialIndex(t testing.TB, n int) *index.Index {
	t.Helper()
	b := xmltree.NewBuilder("adversarial", "root", "")
	for i := 0; i < n; i++ {
		m := b.AddNode(0, "mid", "")
		b.AddNode(m, "leaf", "alpha")
		m = b.AddNode(0, "mid", "")
		b.AddNode(m, "leaf", "beta")
	}
	return index.New(b.Build())
}

// TestCancellationMidJoin runs every strategy on the adversarial
// document under an already-tight deadline and checks that evaluation
// stops promptly from inside the join loops — not after the
// exponential blow-up completes — reporting context.DeadlineExceeded
// with the partial statistics attached.
func TestCancellationMidJoin(t *testing.T) {
	for _, s := range allStrategies {
		// Brute force statically rejects seed pools past its
		// feasibility bound before any join runs; keep it just inside
		// (2×11 = 22 seeds, 2^22 candidate masks) so the enumeration
		// loop itself is what the deadline has to stop.
		n := 14
		if s == cost.BruteForce {
			n = 11
		}
		x := adversarialIndex(t, n)
		q := MustNew([]string{"alpha", "beta"})
		t.Run(s.String(), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			start := time.Now()
			// A huge budget so only the deadline can stop the run.
			_, err := EvaluateContext(ctx, x, q, Options{Strategy: s, MaxFragments: 1 << 30})
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want DeadlineExceeded", err)
			}
			c, ok := IsCanceled(err)
			if !ok {
				t.Fatalf("err %v does not unwrap to *Canceled", err)
			}
			if c.Stats.Strategy != s {
				t.Fatalf("partial stats strategy = %v, want %v", c.Stats.Strategy, s)
			}
			// The deadline was 5ms; cooperative checks fire every 256
			// fragment insertions, so the stop should be near-immediate.
			// Allow generous CI jitter while still catching a run that
			// finished the exponential join before noticing.
			if elapsed > 500*time.Millisecond {
				t.Fatalf("evaluation took %v after a 5ms deadline; cancellation is not prompt", elapsed)
			}
		})
	}
}

// TestCancellationExpiredUpfront checks the fail-fast path: an
// already-expired context returns before any join work happens.
func TestCancellationExpiredUpfront(t *testing.T) {
	x := adversarialIndex(t, 14)
	q := MustNew([]string{"alpha", "beta"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := EvaluateContext(ctx, x, q, Options{Auto: true, MaxFragments: 1 << 30})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("expired-context evaluation took %v, want immediate return", elapsed)
	}
}

// TestContextNeverExpiresIdenticalAnswers checks that threading a live
// context changes nothing: answers and per-strategy agreement are
// identical with and without a deadline that never fires.
func TestContextNeverExpiresIdenticalAnswers(t *testing.T) {
	x := figure1Index(t)
	q := MustNew([]string{"XQuery", "optimization"}, filter.MaxSize(3))
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, s := range allStrategies {
		plain, err := Evaluate(x, q, Options{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		withCtx, err := EvaluateContext(ctx, x, q, Options{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		if !plain.Answers.Equal(withCtx.Answers) {
			t.Fatalf("strategy %v: answers differ with a live context", s)
		}
		if plain.Stats.Answers != withCtx.Stats.Answers {
			t.Fatalf("strategy %v: stats differ with a live context", s)
		}
	}
}

// BenchmarkCancellationOverhead measures what threading a context
// through the join loops costs on the push-down hot path: "none" is
// the legacy nil-context entry point, "ctx" carries a live (never
// expiring) cancellable context through every cooperative check.
func BenchmarkCancellationOverhead(b *testing.B) {
	x := figure1Index(b)
	q := MustNew([]string{"XQuery", "optimization"}, filter.MaxSize(3))
	opts := Options{Strategy: cost.PushDown}
	b.Run("none", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Evaluate(x, q, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ctx", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		for i := 0; i < b.N; i++ {
			if _, err := EvaluateContext(ctx, x, q, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
