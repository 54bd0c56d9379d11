package store

import (
	"container/heap"
	"context"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/collection"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/query"
)

// Result is a merged store-wide search result: the global top-k hits
// across every shard plus per-document stats and errors.
type Result struct {
	// Hits in serving order (collection.BetterHit), capped at the
	// requested k.
	Hits []collection.Hit
	// Total counts every hit across the store, before the top-k cap.
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
// pool), and the per-shard ranked lists merge through a global top-k
// heap — O(total·log k) instead of sorting the full concatenation.
// k caps the merged hit list (k <= 0 keeps every hit). Parse
// keyword/filter strings with query.Parse.
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
			shardResults[i], shardErrs[i] = sh.RunContextOn(shardCtx, q, shardOpts, allow)
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
	h := &hitHeap{}
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
		out.Total += len(sr.Hits)
		if k <= 0 {
			out.Hits = append(out.Hits, sr.Hits...)
			continue
		}
		for _, hit := range sr.Hits {
			if h.Len() < k {
				heap.Push(h, hit)
				continue
			}
			if collection.BetterHit(hit, (*h)[0]) {
				(*h)[0] = hit
				heap.Fix(h, 0)
			}
		}
	}
	if k <= 0 {
		sort.Slice(out.Hits, func(i, j int) bool { return collection.BetterHit(out.Hits[i], out.Hits[j]) })
	} else {
		out.Hits = make([]collection.Hit, h.Len())
		for i := h.Len() - 1; i >= 0; i-- {
			out.Hits[i] = heap.Pop(h).(collection.Hit)
		}
	}
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

// hitHeap is a min-heap on collection.BetterHit: the root is the worst
// retained hit, evicted first when a better one arrives. BetterHit is a
// total order, so the k hits retained — and therefore every
// limit/offset page — do not depend on k or on arrival order.
type hitHeap []collection.Hit

func (h hitHeap) Len() int           { return len(h) }
func (h hitHeap) Less(i, j int) bool { return collection.BetterHit(h[j], h[i]) }
func (h hitHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *hitHeap) Push(x any)        { *h = append(*h, x.(collection.Hit)) }
func (h *hitHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
