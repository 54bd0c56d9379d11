package query

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

// Options controls query evaluation.
type Options struct {
	// Strategy forces a specific evaluation strategy. Ignored when
	// Auto is set.
	Strategy cost.Strategy
	// Auto lets the Chooser pick the strategy from the seed sets and
	// the filter's anti-monotonicity (Section 5's optimizer sketch).
	Auto bool
	// Chooser parameterizes Auto; the zero value is replaced by
	// cost.DefaultChooser.
	Chooser cost.Chooser
	// Plan, when non-nil and Auto is set, supplies the per-set
	// strategies a per-shard planner compiled from maintained
	// statistics, replacing query-time RF estimation. Push-down and
	// brute-force remain evaluation-time decisions (see query.Plan);
	// a plan that does not match the query's group count is ignored.
	Plan *Plan
	// MaxFragments caps how many fragments any intermediate set may
	// hold before evaluation aborts with core.ErrBudgetExceeded (the
	// powerset join is worst-case exponential; Section 3.1). Zero
	// means DefaultMaxFragments.
	MaxFragments int
	// Trace records a per-operator span tree (operator, cardinalities,
	// durations) into Result.Trace.
	Trace bool
}

// DefaultMaxFragments is the intermediate-set budget applied when
// Options.MaxFragments is zero. It comfortably covers every workload
// in EXPERIMENTS.md while aborting degenerate unfiltered queries
// within seconds.
const DefaultMaxFragments = 200000

func (o Options) maxFragments() int {
	if o.MaxFragments > 0 {
		return o.MaxFragments
	}
	return DefaultMaxFragments
}

// Stats describes the work one evaluation performed. Counts are the
// paper's currency for comparing strategies: fragments materialized
// and fragment joins executed. All counts are per-evaluation and
// race-free — concurrent evaluations never contribute to each other's
// Stats.
type Stats struct {
	// Strategy actually used (relevant with Options.Auto). When
	// per-set choice was in play this is the headline: SetReduction if
	// any fixed point used it, Naive otherwise.
	Strategy cost.Strategy
	// SetStrategies is the strategy per fixed point (term order) when
	// the auto chooser or a compiled plan decided per set; nil for
	// forced strategies and for the whole-query decisions (PushDown,
	// BruteForce).
	SetStrategies []cost.Strategy
	// RFEstimates are the per-set reduction-factor estimates that
	// drove the choice (term order): statistics-derived when a plan
	// was used, structural/sampled otherwise. Nil when no per-set
	// estimation happened.
	RFEstimates []float64
	// Planned reports the strategies came from a compiled per-shard
	// plan rather than query-time estimation.
	Planned bool
	// SeedSizes are |Fi| per query term, in term order.
	SeedSizes []int
	// FixedPointSizes are |Fi⁺| per term (or the filtered fixed-point
	// sizes under push-down). Empty for brute force and enumerate,
	// which never form fixed points.
	FixedPointSizes []int
	// Candidates is the number of fragments materialized before the
	// final selection.
	Candidates int
	// Answers is |A|, the final answer-set size.
	Answers int
	// Joins is the number of fragment joins executed by THIS
	// evaluation (equal to Ops.Joins; kept as a field for existing
	// callers). Always 0 under enumerate, whose work is Ops.EnumNodes.
	Joins uint64
	// Ops holds every operator counter of this evaluation: joins,
	// pairwise joins, powerset expansions, fixed-point iterations,
	// filter prunes, memo hits, dedup probes, posting prunes.
	Ops obs.CounterSnapshot
	// Elapsed is wall-clock evaluation time.
	Elapsed time.Duration
	// Stages attributes the evaluation's wall-clock time to the
	// serving-path stages (selection, reduction, join, …). A fixed-size
	// array so accumulating it never allocates; recorded whether or not
	// the evaluation is traced.
	Stages obs.StageTimings
}

// Result is a query answer (Definition 8) plus evaluation statistics.
type Result struct {
	// Answers holds the answer set A in canonical presentation order.
	Answers *core.Set
	Stats   Stats
	// Trace is the per-operator span tree, non-nil only when
	// Options.Trace was set.
	Trace *obs.Span
}

// EvalContext threads the per-evaluation state — the cancellation
// context, the operator counters, the kernel state (pair-join memo)
// and the (possibly nil) trace span — through the strategy
// implementations.
type EvalContext struct {
	// Ctx carries the evaluation deadline/cancellation; always non-nil
	// inside EvaluateContext.
	Ctx context.Context
	// Counters receives every operator count of this evaluation;
	// always non-nil inside Evaluate.
	Counters *obs.EvalCounters
	// State is the per-evaluation join-kernel state (counters plus the
	// pair-join memo), shared by every operator of the evaluation so
	// pairs re-joined across operators — ⊖'s witness pairs re-met by
	// the budgeted self joins, powerset fold prefixes — are served
	// from the memo. Always non-nil inside EvaluateContext.
	State *core.EvalState
	// Span is the root trace span, nil when tracing is off (all span
	// operations are nil-safe).
	Span *obs.Span
}

// seedRef pairs one conjunctive group's seed set with its display
// term and group index, so trace spans stay labeled and per-set
// strategies stay attributable after the seeds are re-ordered by size.
type seedRef struct {
	set   *core.Set
	term  string
	group int
}

// Canceled reports an evaluation stopped by its context — the error
// unwraps to context.Canceled or context.DeadlineExceeded — together
// with the partial statistics of the work performed before the stop,
// so callers (and /api/metrics) can attribute the joins a timed-out
// query still executed.
type Canceled struct {
	// Stats counts the work done up to the stop. Answers is always 0
	// (no answer set was produced); operator counters, seed sizes and
	// Elapsed are real.
	Stats Stats
	err   error
}

// Error describes the stop and the work performed.
func (e *Canceled) Error() string {
	return fmt.Sprintf("query: evaluation stopped after %s and %d joins: %v", e.Stats.Elapsed, e.Stats.Ops.Joins, e.err)
}

// Unwrap exposes the underlying context error for errors.Is.
func (e *Canceled) Unwrap() error { return e.err }

// IsCanceled reports whether err is an evaluation stop caused by
// context cancellation or deadline expiry, returning the partial
// statistics when it is.
func IsCanceled(err error) (*Canceled, bool) {
	var c *Canceled
	if errors.As(err, &c) {
		return c, true
	}
	return nil, false
}

// Evaluate answers q against the indexed document. All strategies
// produce identical answer sets; they differ in the work performed.
// Statistics are counted per evaluation (Stats.Ops), so concurrent
// evaluations are independent. Evaluate never stops early: it is
// EvaluateContext with a background context.
func Evaluate(x *index.Index, q Query, opts Options) (Result, error) {
	return EvaluateContext(context.Background(), x, q, opts)
}

// EvaluateContext is Evaluate with cooperative cancellation: the
// fixed-point, pairwise-join and powerset-join inner loops poll ctx
// amortized (every few hundred fragment joins), so a cancelled or
// deadline-expired query stops promptly instead of running until the
// fragment budget trips. A stopped evaluation returns a *Canceled
// error wrapping ctx.Err() and carrying the partial Stats of the work
// done.
func EvaluateContext(ctx context.Context, x *index.Index, q Query, opts Options) (Result, error) {
	return evaluate(ctx, x, q, opts, nil)
}

// EvaluateEach is EvaluateContext handing each answer to emit, in no
// particular order, instead of returning the answer set: Result.Answers
// is nil and the statistics are EvaluateContext's. On the enumerate
// path the answers stream straight out of core.EnumerateEach: emit sees
// transient fragments and must copy what it keeps, and each answer is
// tested only against the residual clauses the enumeration does not
// push, so no answer set is ever built. The other strategies build
// their answer set and emit its members. An error from emit stops the
// evaluation and is returned (a context error as a *Canceled).
func EvaluateEach(ctx context.Context, x *index.Index, q Query, opts Options, emit func(core.Fragment) error) (Result, error) {
	return evaluate(ctx, x, q, opts, emit)
}

// evaluate is EvaluateContext (emit nil) and EvaluateEach (emit set).
func evaluate(ctx context.Context, x *index.Index, q Query, opts Options, emit func(core.Fragment) error) (Result, error) {
	if len(q.Terms) == 0 {
		return Result{}, fmt.Errorf("query: empty query")
	}
	start := time.Now()
	ec := &EvalContext{Ctx: ctx, Counters: new(obs.EvalCounters)}
	ec.State = core.NewEvalState(ec.Counters)
	if parent := obs.SpanFromContext(ctx); parent != nil {
		// A sampled request carries its span through ctx; root this
		// evaluation's spans under it so the distributed trace covers
		// the kernel phases.
		opts.Trace = true
		ec.Span = parent.Start("evaluate", "")
	} else if opts.Trace {
		ec.Span = obs.StartSpan("evaluate", "")
	}

	doc := x.Document()
	groups := q.Groups
	terms := q.Terms
	if groups == nil {
		// Queries built as struct literals (tests, older callers) carry
		// only Terms; treat each as a single-alternative group.
		for _, t := range q.Terms {
			groups = append(groups, []string{t})
		}
	}
	stats := Stats{SeedSizes: make([]int, len(groups))}
	// finish records n answers; answers is the set holding them, nil
	// when they were emitted instead.
	finish := func(answers *core.Set, n int) Result {
		stats.Answers = n
		stats.Ops = ec.Counters.Snapshot()
		stats.Joins = stats.Ops.Joins
		stats.Elapsed = time.Since(start)
		ec.Span.Finish(n)
		return Result{Answers: answers, Stats: stats, Trace: ec.Span}
	}
	// none finishes an evaluation that proved the answer empty.
	none := func() Result {
		if emit != nil {
			return finish(nil, 0)
		}
		return finish(core.NewSet(), 0)
	}
	// canceled packages a context stop as a *Canceled error with the
	// statistics of the work performed so far.
	canceled := func(err error) error {
		stats.Ops = ec.Counters.Snapshot()
		stats.Joins = stats.Ops.Joins
		stats.Elapsed = time.Since(start)
		return &Canceled{Stats: stats, err: err}
	}
	// stopped turns a context stop into a *Canceled error and passes
	// any other error through.
	stopped := func(err error) error {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return canceled(err)
		}
		return err
	}
	// Fail fast on an already-expired context before touching the
	// index: the acceptance bar for pathological inputs is prompt
	// rejection, not one seed scan per term first.
	if err := ctx.Err(); err != nil {
		return Result{}, canceled(err)
	}
	// Theorem 3 and the closed-witness-set rule: with an anti-monotonic
	// clause, auto enumerates the answers straight from the witness
	// nodes, so it never builds the seed fragment sets the fixed-point
	// strategies start from. More groups than the enumerator's masks
	// hold leave it to push-down.
	enumerate := opts.Auto && q.HasPushableFilter() && len(groups) <= core.MaxEnumerateGroups
	var nodesBuf [4][]xmltree.NodeID // on the stack for up to four groups
	nodes := slices.Grow(nodesBuf[:0], len(groups))[:len(groups)]
	var seeds []seedRef
	if !enumerate {
		seeds = make([]seedRef, len(groups))
	}
	seedStart := time.Now()
	total := 0
	for i, alts := range groups {
		label := ""
		if i < len(terms) {
			label = terms[i]
		}
		sp := ec.Span.Start("seed", label)
		nodes[i] = seedNodes(x, alts)
		if seeds != nil {
			seeds[i] = seedRef{set: core.NodeFragments(doc, nodes[i]), term: label, group: i}
		}
		stats.SeedSizes[i] = len(nodes[i])
		total += len(nodes[i])
		sp.Finish(len(nodes[i]))
		if len(nodes[i]) == 0 {
			// Conjunctive semantics: a group with no witness in the
			// document empties the answer.
			stats.Stages.Add(obs.StageSelection, time.Since(seedStart))
			return none(), nil
		}
	}
	stats.Stages.Add(obs.StageSelection, time.Since(seedStart))

	// Evaluate rarest term first: pairwise join cost is the product of
	// intermediate set sizes, so folding seeds in ascending size keeps
	// the accumulator small for longer. Sound because pairwise join is
	// commutative and associative (Section 2.2); stats keep reporting
	// SeedSizes in the query's term order.
	ordered := append([]seedRef(nil), seeds...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].set.Len() < ordered[j].set.Len() })

	strategy := opts.Strategy
	var perSet []cost.Strategy
	if opts.Auto {
		ch := opts.Chooser
		if ch == (cost.Chooser{}) {
			ch = cost.DefaultChooser()
		}
		switch {
		case enumerate:
			strategy = cost.Enumerate
		case q.HasPushableFilter():
			// Theorem 3: an anti-monotonic clause always makes
			// push-down the right choice among the fixed-point
			// strategies.
			strategy = cost.PushDown
		case total <= ch.BruteForceLimit:
			// Brute-force feasibility is decided on the ACTUAL seed
			// count of this document — never by a plan, whose
			// shard-level averages could force the exponential
			// powerset evaluation where it is infeasible.
			strategy = cost.BruteForce
		case opts.Plan.usable(len(seeds)):
			strategy = opts.Plan.Strategy
			perSet = opts.Plan.SetStrategies
			stats.RFEstimates = opts.Plan.RFs
			stats.Planned = true
		default:
			strategy, perSet, stats.RFEstimates = ch.ChooseEach(seedSets(seeds), false)
		}
		stats.SetStrategies = perSet
	}
	stats.Strategy = strategy
	ec.Span.SetDetail(strategy.String())

	// Posting-level pre-filter (the push-down of Theorem 3 lifted to
	// witnesses): with structural anti-monotonic bounds in play, the
	// witness-pair lower bounds — any answer contains one witness per
	// group plus both paths to their LCA — can prove the answer set
	// empty straight from the seed nodes, before a single fragment
	// join. It belongs to the strategies that push the selection only:
	// the unpushed strategies stay faithful to their paper semantics,
	// including refusing with a budget error where materialization is
	// infeasible.
	if strategy == cost.PushDown || strategy == cost.Enumerate {
		if bounds := q.PushBounds(); bounds.Any() {
			ppStart := time.Now()
			sp := ec.Span.Start("posting-prune", "")
			empty := seedsProveEmpty(doc, nodes, bounds, cost.DefaultPostingPrune())
			sp.Finish(boolToInt(empty))
			stats.Stages.Add(obs.StageSelection, time.Since(ppStart))
			if empty {
				ec.Counters.AddPostingPrunes(1)
				return none(), nil
			}
		}
	}

	var (
		answers *core.Set
		err     error
	)
	budget := opts.maxFragments()
	if strategy == cost.Enumerate && emit != nil {
		n, err := evalEnumerateEach(ec, doc, nodes, q, &stats, budget, emit)
		if err != nil {
			return Result{}, stopped(err)
		}
		return finish(nil, n), nil
	}
	switch strategy {
	case cost.BruteForce:
		answers, err = evalBruteForce(ec, ordered, q, &stats, budget)
	case cost.Naive, cost.SetReduction:
		answers, err = evalFixedPoints(ec, ordered, q, &stats, budget, perSet)
	case cost.PushDown:
		answers, err = evalPushDown(ec, ordered, q, &stats, budget)
	case cost.Enumerate:
		answers, err = evalEnumerate(ec, doc, nodes, q, &stats, budget)
	default:
		err = fmt.Errorf("query: unknown strategy %v", strategy)
	}
	if err != nil {
		return Result{}, stopped(err)
	}
	if emit != nil {
		for _, f := range answers.Fragments() {
			if err := emit(f); err != nil {
				return Result{}, err
			}
		}
		return finish(nil, answers.Len()), nil
	}
	return finish(answers, answers.Len()), nil
}

// seedSets projects the seed sets out of refs for the cost chooser.
func seedSets(refs []seedRef) []*core.Set {
	sets := make([]*core.Set, len(refs))
	for i, r := range refs {
		sets[i] = r.set
	}
	return sets
}

// seedNodes resolves one conjunctive group to its witness nodes: the
// union over alternatives, where a plain term reads its posting list
// and a quoted phrase verifies adjacency (sorted, deduplicated).
func seedNodes(x *index.Index, alts []string) []xmltree.NodeID {
	if len(alts) == 1 && !IsPhrase(alts[0]) {
		return x.LookupExact(alts[0])
	}
	seen := make(map[xmltree.NodeID]struct{})
	var out []xmltree.NodeID
	for _, alt := range alts {
		var ids []xmltree.NodeID
		if IsPhrase(alt) {
			ids = index.PhraseNodes(x, PhraseWords(alt))
		} else {
			ids = x.LookupExact(alt)
		}
		for _, id := range ids {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// selectAnswers applies the final whole-query selection under a
// "select" span, attributing the time to the selection stage.
func selectAnswers(ctx *EvalContext, q Query, candidates *core.Set, stats *Stats) *core.Set {
	return selectWith(ctx, candidates, stats, q.predicateFunc(), func() string { return q.Predicate().String() })
}

// selectWith runs pred over candidates under a "select" span labelled
// by label, which is called only when the evaluation is traced.
func selectWith(ctx *EvalContext, candidates *core.Set, stats *Stats, pred func(core.Fragment) bool, label func() string) *core.Set {
	start := time.Now()
	var sp *obs.Span
	if ctx.Span != nil {
		sp = ctx.Span.Start("select", label())
	}
	out := candidates.Select(pred)
	sp.Finish(out.Len(), candidates.Len())
	stats.Stages.Add(obs.StageSelection, time.Since(start))
	return out
}

// evalBruteForce is Section 4.1: materialize every candidate of the
// literal powerset join, deduplicate, then filter. Both the literal
// enumeration bound and the fragment budget apply — the strategy
// exists "for performance comparison with other available alternative
// strategies" (Section 4.1), not for real workloads.
func evalBruteForce(ctx *EvalContext, seeds []seedRef, q Query, stats *Stats, budget int) (*core.Set, error) {
	total := 0
	sizes := make([]int, len(seeds))
	for i, s := range seeds {
		total += s.set.Len()
		sizes[i] = s.set.Len()
	}
	// Candidate count is within a factor of 2^m of 2^total; refuse
	// upfront when even the deduplicated pool subsets exceed budget.
	if total < 63 && (int64(1)<<total) > int64(budget) {
		return nil, budgetError(total, budget)
	}
	joinStart := time.Now()
	sp := ctx.Span.Start("powerset-join", "")
	rows, err := core.MultiPowersetJoinTrace(ctx.Ctx, ctx.State, seedSets(seeds), nil)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return nil, fmt.Errorf("query: brute force infeasible: %w (choose another strategy)", err)
	}
	stats.Candidates = len(rows)
	all := core.NewSet()
	for _, r := range rows {
		all.Add(r.Result)
	}
	sp.Finish(all.Len(), sizes...)
	stats.Stages.Add(obs.StageJoin, time.Since(joinStart))
	return selectAnswers(ctx, q, all, stats), nil
}

func budgetError(seeds, budget int) error {
	return fmt.Errorf("query: brute force over %d seed fragments exceeds the %d-fragment budget: %w", seeds, budget, core.ErrBudgetExceeded)
}

// fixedPointFn is the shape shared by the naive (checking) and
// set-reduction (Theorem 1-budgeted) fixed-point computations.
type fixedPointFn = func(context.Context, *core.EvalState, *core.Set, int) (*core.Set, error)

// fixedPointFor picks the fixed-point computation for one seed set:
// its per-set strategy when the chooser or plan decided per set, the
// evaluation's headline strategy otherwise.
func fixedPointFor(stats *Stats, perSet []cost.Strategy, ref seedRef) fixedPointFn {
	s := stats.Strategy
	if perSet != nil && ref.group >= 0 && ref.group < len(perSet) {
		s = perSet[ref.group]
	}
	if s == cost.SetReduction {
		return core.FixedPointBounded
	}
	return core.FixedPointNaiveBounded
}

// evalFixedPoints is Sections 3.1/4.2: per-term fixed points (naive or
// Theorem 1-budgeted, chosen per set from perSet when present),
// pairwise-joined in ascending seed-size order, with the whole
// selection applied last.
func evalFixedPoints(ctx *EvalContext, seeds []seedRef, q Query, stats *Stats, budget int, perSet []cost.Strategy) (*core.Set, error) {
	fpStart := time.Now()
	sp := ctx.Span.Start("fixed-point", seeds[0].term)
	acc, err := fixedPointFor(stats, perSet, seeds[0])(ctx.Ctx, ctx.State, seeds[0].set, budget)
	if err != nil {
		return nil, err
	}
	sp.Finish(acc.Len(), seeds[0].set.Len())
	stats.Stages.Add(obs.StageReduction, time.Since(fpStart))
	stats.FixedPointSizes = append(stats.FixedPointSizes, acc.Len())
	for _, s := range seeds[1:] {
		fpStart = time.Now()
		spFP := ctx.Span.Start("fixed-point", s.term)
		next, err := fixedPointFor(stats, perSet, s)(ctx.Ctx, ctx.State, s.set, budget)
		if err != nil {
			return nil, err
		}
		spFP.Finish(next.Len(), s.set.Len())
		stats.Stages.Add(obs.StageReduction, time.Since(fpStart))
		stats.FixedPointSizes = append(stats.FixedPointSizes, next.Len())
		joinStart := time.Now()
		spJ := ctx.Span.Start("pairwise-join", "")
		inL, inR := acc.Len(), next.Len()
		if acc, err = core.PairwiseJoinBounded(ctx.Ctx, ctx.State, acc, next, core.Selection{}, budget); err != nil {
			return nil, err
		}
		spJ.Finish(acc.Len(), inL, inR)
		stats.Stages.Add(obs.StageJoin, time.Since(joinStart))
	}
	stats.Candidates = acc.Len()
	return selectAnswers(ctx, q, acc, stats), nil
}

// evalPushDown is Section 4.3: the anti-monotonic part of P runs
// inside every fixed-point iteration and after every pairwise join
// (Theorem 3); the residual part and the final selection run last.
// With no anti-monotonic clause this degenerates gracefully: the
// pushable filter is accept-all and the evaluation equals the
// set-reduction strategy.
func evalPushDown(ctx *EvalContext, seeds []seedRef, q Query, stats *Stats, budget int) (*core.Set, error) {
	// Evaluate the pushed conjunction cheap-clauses-first, bounds from
	// labels; span labels keep the query's clause order via the
	// pushable filter's name, built only when traced.
	var pushName string
	if ctx.Span != nil {
		pushName = q.Pushable().Name
	}
	push := q.pushSelection()
	fpStart := time.Now()
	sp := ctx.Span.Start("filtered-fixed-point", spanFilterDetail(seeds[0].term, pushName))
	acc, err := core.FilteredFixedPointBounded(ctx.Ctx, ctx.State, seeds[0].set, push, budget)
	if err != nil {
		return nil, err
	}
	sp.Finish(acc.Len(), seeds[0].set.Len())
	stats.Stages.Add(obs.StageReduction, time.Since(fpStart))
	stats.FixedPointSizes = append(stats.FixedPointSizes, acc.Len())
	for _, s := range seeds[1:] {
		fpStart = time.Now()
		spFP := ctx.Span.Start("filtered-fixed-point", spanFilterDetail(s.term, pushName))
		next, err := core.FilteredFixedPointBounded(ctx.Ctx, ctx.State, s.set, push, budget)
		if err != nil {
			return nil, err
		}
		spFP.Finish(next.Len(), s.set.Len())
		stats.Stages.Add(obs.StageReduction, time.Since(fpStart))
		stats.FixedPointSizes = append(stats.FixedPointSizes, next.Len())
		joinStart := time.Now()
		spJ := ctx.Span.Start("filtered-pairwise-join", pushName)
		inL, inR := acc.Len(), next.Len()
		if acc, err = core.PairwiseJoinBounded(ctx.Ctx, ctx.State, acc, next, push, budget); err != nil {
			return nil, err
		}
		spJ.Finish(acc.Len(), inL, inR)
		stats.Stages.Add(obs.StageJoin, time.Since(joinStart))
	}
	stats.Candidates = acc.Len()
	return selectAnswers(ctx, q, acc, stats), nil
}

// evalEnumerate produces the answers as closed witness sets
// (core.EnumerateAnswers): one bottom-up pass over the witness nodes'
// ancestors under the pushed selection, with no fixed point and no
// join. The pass holds the pushed clauses exactly, so only the residual
// runs last, and not at all when there is none. The pass is charged to
// the join stage, which it replaces.
func evalEnumerate(ctx *EvalContext, doc *xmltree.Document, groups [][]xmltree.NodeID, q Query, stats *Stats, budget int) (*core.Set, error) {
	start := time.Now()
	sp := ctx.Span.Start("enumerate", pushableName(ctx, q))
	cands, err := core.EnumerateAnswers(ctx.Ctx, ctx.State, doc, groups, q.pushSelection(), budget)
	if err != nil {
		return nil, err
	}
	sp.Finish(cands.Len(), stats.SeedSizes...)
	stats.Stages.Add(obs.StageJoin, time.Since(start))
	stats.Candidates = cands.Len()
	residual := q.residualFunc()
	if residual == nil {
		return cands, nil
	}
	return selectWith(ctx, cands, stats, residual, func() string { return q.Residual().String() }), nil
}

// evalEnumerateEach is evalEnumerate streaming: each answer the pass
// forms is tested against the residual and handed to emit, and none is
// kept. It returns the number emitted.
func evalEnumerateEach(ctx *EvalContext, doc *xmltree.Document, groups [][]xmltree.NodeID, q Query, stats *Stats, budget int, emit func(core.Fragment) error) (int, error) {
	start := time.Now()
	sp := ctx.Span.Start("enumerate", pushableName(ctx, q))
	residual := q.residualFunc()
	cands, n := 0, 0
	err := core.EnumerateEach(ctx.Ctx, ctx.State, doc, groups, q.pushSelection(), budget, func(f core.Fragment) error {
		cands++
		if residual != nil && !residual(f) {
			return nil
		}
		n++
		return emit(f)
	})
	if err != nil {
		return 0, err
	}
	sp.Finish(cands, stats.SeedSizes...)
	stats.Stages.Add(obs.StageJoin, time.Since(start))
	stats.Candidates = cands
	return n, nil
}

// pushableName labels an enumerate span with the pushed filter; it is
// built only when the evaluation is traced.
func pushableName(ctx *EvalContext, q Query) string {
	if ctx.Span == nil {
		return ""
	}
	return q.Pushable().Name
}

// spanFilterDetail labels a push-down span with its term and pushed
// filter.
func spanFilterDetail(term, filterName string) string {
	if filterName == "" {
		return term
	}
	return term + " σ " + filterName
}
