package store

import (
	"context"
	"strconv"
	"sync"
	"time"

	"repro/internal/collection"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/ranking"
)

// Result is a merged store-wide search result: the global top-k hits
// across every shard plus per-document stats and errors.
type Result struct {
	// Hits in serving order (collection.BetterHit), capped at the
	// requested k.
	Hits []collection.Hit
	// Total counts every answer across the store, before the top-k
	// cap: the sum of the shards' totals.
	Total int
	// PerDocument maps document name → its evaluation statistics.
	PerDocument map[string]query.Stats
	// Errors maps document name → evaluation error. Documents skipped
	// because the context deadline passed appear here under
	// context.DeadlineExceeded / context.Canceled; documents already
	// evaluated keep their hits, so a timed-out search degrades to
	// partial results instead of hanging.
	Errors map[string]error
	// Traces maps document name → its evaluation's span tree; non-nil
	// entries only when Options.Trace was set.
	Traces map[string]*obs.Span
}

// Run scatter-gathers a prebuilt query: every shard evaluates
// concurrently under ctx (each with its bounded per-document worker
// pool) and returns at most its k best hits, and the per-shard lists
// merge through a global top-k heap — at most shards·k hits, never
// the full answer set. k caps the merged hit list (k <= 0 keeps every
// hit). Parse keyword/filter strings with query.Parse.
func (s *Store) Run(ctx context.Context, q query.Query, opts query.Options, k int) (*Result, error) {
	shardResults := make([]*collection.Result, len(s.shards))
	shardErrs := make([]error, len(s.shards))
	// parent is non-nil only for sampled requests: each shard then
	// contributes a child span, started here but finished by the shard
	// goroutine (Span child append and Finish are concurrency-safe).
	// The queue_wait attribute splits scheduling delay from execution.
	parent := obs.SpanFromContext(ctx)
	spawned := time.Now()
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		ssp := parent.Start("shard", strconv.Itoa(i))
		go func(i int, sh *collection.Collection, ssp *obs.Span) {
			defer wg.Done()
			if ssp != nil {
				ssp.SetAttr("queue_wait", time.Since(spawned).String())
			}
			shardCtx := obs.ContextWithSpan(ctx, ssp)
			// Adaptive planning: on the auto path each shard consults
			// its plan cache (compiled from maintained statistics)
			// instead of sampling RF per query. The plan only steers the
			// Naive/SetReduction choice, so a stale plan is suboptimal,
			// never wrong.
			shardOpts := opts
			if opts.Auto && shardOpts.Plan == nil {
				shardOpts.Plan, _ = s.planShard(i, q, opts.Chooser)
			}
			// Posting-first selection: the shard's term index proves
			// most documents answerless before any evaluation runs.
			// Skipped during replay (the index may not yet cover every
			// already-searchable document) and when the query carries no
			// term groups for the index to work with: allow then stays
			// nil, which evaluates every document of the shard.
			var allow []string
			if s.gidx != nil && !s.replaying.Load() {
				psp := ssp.Start("posting-prefilter", "")
				cand := s.gidx.Shard(i).Candidates(q, cost.DefaultPostingPrune())
				psp.Finish(len(cand.Names))
				if cand.Consulted {
					s.metrics.Counter(obs.MIndexPrefilters).Add(1)
					if pruned := cand.Total - len(cand.Names); pruned > 0 {
						s.metrics.Counter(obs.MIndexPrunedDocs).Add(uint64(pruned))
					}
					allow = cand.Names
				}
			}
			shardResults[i], shardErrs[i] = sh.RunTopOn(shardCtx, q, shardOpts, allow, k)
			hits := 0
			if shardResults[i] != nil {
				hits = len(shardResults[i].Hits)
				s.observeShardStages(i, shardResults[i])
			}
			ssp.Finish(hits)
		}(i, sh, ssp)
	}
	wg.Wait()
	for _, err := range shardErrs {
		if err != nil {
			return nil, err
		}
	}

	mergeStart := time.Now()
	msp := parent.Start("merge", "")
	out := &Result{PerDocument: make(map[string]query.Stats)}
	n := 0
	for _, sr := range shardResults {
		n += len(sr.Hits)
	}
	sel := ranking.NewTopK(k, n, collection.BetterHit)
	for _, sr := range shardResults {
		for name, st := range sr.PerDocument {
			out.PerDocument[name] = st
		}
		for name, err := range sr.Errors {
			if out.Errors == nil {
				out.Errors = make(map[string]error)
			}
			out.Errors[name] = err
		}
		for name, sp := range sr.Traces {
			if out.Traces == nil {
				out.Traces = make(map[string]*obs.Span)
			}
			out.Traces[name] = sp
		}
		out.Total += sr.Total
		for _, hit := range sr.Hits {
			sel.Offer(hit)
		}
	}
	out.Hits = sel.Sorted()
	msp.Finish(len(out.Hits))
	s.metrics.ObserveStage(obs.StageMerge, time.Since(mergeStart))
	if ctx.Err() != nil {
		s.metrics.Counter(obs.MSearchDeadline).Add(1)
	}
	return out, nil
}

// observeShardStages attributes one shard's kernel stage time under
// the store registry's {shard,stage} series (precomputed names;
// nothing allocates here when unsampled).
func (s *Store) observeShardStages(i int, sr *collection.Result) {
	var stages obs.StageTimings
	for _, st := range sr.PerDocument {
		stages.Merge(st.Stages)
	}
	for stage, ns := range stages {
		if ns > 0 {
			s.metrics.Histogram(s.shardStageSeries[i][stage], obs.LatencyBuckets).Observe(time.Duration(ns).Seconds())
		}
	}
}
