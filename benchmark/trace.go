package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/collection"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/gindex"
	"repro/internal/httpapi"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/xmltree"
)

// The replay times calls into each layer's public functions from this
// file, one caller at GOMAXPROCS=1. It cannot time store.Run inside
// ServeHTTP without touching the program, so it runs every operation
// once per level: through the handler, then through store.Run, then
// shard by shard through the plan cache, the posting prefilter and
// collection.RunContextOn, then document by document through
// engine.RunContext, query.EvaluateContext and the ranker. A level's
// self time is its own call minus the calls of the level below. The
// levels below the store run on a mirror of the store's shards (the
// store does not export them), built from the same documents with the
// same routing.

// span is one timed call. Children name their parent; spans of one
// operation share Op. Child spans are re-executions that follow their
// parent in wall time, they are not nested inside it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the replay ends, and the
// time and call count per span name.
type tracer struct {
	t0    time.Time
	spans []span
	sum   map[string]time.Duration
	calls map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sum: map[string]time.Duration{}, calls: map[string]int{}}
}

// call times fn as a span of op under parent and returns the span's ID.
func (t *tracer) call(op, parent int, name string, fn func()) int {
	start := time.Now()
	fn()
	return t.record(op, parent, name, start, time.Since(start))
}

// record files a span that was timed by the caller.
func (t *tracer) record(op, parent int, name string, start time.Time, d time.Duration) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(start.Sub(t.t0)), End: int64(start.Sub(t.t0) + d)})
	t.sum[name] += d
	t.calls[name]++
	return id
}

// perCall is the mean duration of one call of name, in ms.
func (t *tracer) perCall(name string) float64 {
	if t.calls[name] == 0 {
		return 0
	}
	return float64(t.sum[name]) / 1e6 / float64(t.calls[name])
}

// typical is the median duration of one call of name, in ms. The write
// levels use it: one write in a thousand waits out a compaction, and
// whichever level that wait lands on would carry it in its mean.
func (t *tracer) typical(name string) float64 {
	var ms []float64
	for _, sp := range t.spans {
		if sp.Name == name {
			ms = append(ms, float64(sp.End-sp.Start)/1e6)
		}
	}
	return quantile(ms, 0.5)
}

// Span names. The search levels:
const (
	spServeSearch = "httpapi.ServeHTTP(search)"
	spParse       = "query.Parse"
	spRun         = "store.Run"
	spPlanCold    = "engine.PlanCache.Plan(cold)"
	spPlanHit     = "engine.PlanCache.Plan(hit)"
	spCandidates  = "gindex.Shard.Candidates"
	spCollRun     = "collection.RunContextOn"
	spEngineRun   = "engine.RunContext"
	spEvaluate    = "query.EvaluateContext"
	spRank        = "ranking.Rank"
	spLookup      = "index.Lookup"
	// The write levels:
	spServeAdd = "httpapi.ServeHTTP(adddoc)"
	spAddXML   = "store.AddXML"
	spAddBare  = "store.AddXML(no term index)"
	spXMLParse = "xmltree.ParseString"
	spIndexNew = "index.New"
	spPut      = "gindex.Shard.Put"
	spCollAdd  = "collection.Add"
)

// replay is the in-process twin of the server: the handler on a durable
// store, a second durable store for the direct AddXML calls and the
// probes, and the mirror of the shards.
type replay struct {
	t      *tracer
	c      *corpus
	dir    string
	st     *store.Store // behind the handler
	h      *httpapi.Server
	st2    *store.Store // called directly
	opts2  store.Options
	bare   *store.Store  // called directly, durable, without a term index
	side   *gindex.Index // the Put calls
	mirror []*collection.Collection
	mstats []*stats.Shard
	mplans []*engine.PlanCache
	op     int
	tally
}

// tally is what the searches of a replay add up.
type tally struct {
	searches  int
	docsEval  int
	candTotal int
	candKept  int
	answers   int
	respBytes int
	ops       obs.CounterSnapshot
	stages    obs.StageTimings
}

func newReplay(c *corpus, dir string) (*replay, error) {
	rp := &replay{t: newTracer(), c: c, dir: dir}
	var err error
	if rp.st, err = store.Open(store.Options{Dir: filepath.Join(dir, "t-data"), IndexDir: filepath.Join(dir, "t-index")}); err != nil {
		return nil, err
	}
	// The server's flag defaults, as cmd/xfragserver passes them.
	rp.h = httpapi.NewStoreWithConfig(rp.st, httpapi.Config{QueryTimeout: 10 * time.Second, SlowQueryThreshold: 250 * time.Millisecond, TraceBuffer: 128})
	rp.opts2 = store.Options{Dir: filepath.Join(dir, "t2-data"), IndexDir: filepath.Join(dir, "t2-index")}
	if rp.st2, err = store.Open(rp.opts2); err != nil {
		return nil, err
	}
	if rp.bare, err = store.Open(store.Options{Dir: filepath.Join(dir, "t3-data")}); err != nil {
		return nil, err
	}
	n := rp.st.Shards()
	if rp.side, err = gindex.Open(gindex.Options{Dir: filepath.Join(dir, "t-side"), Shards: n}); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		coll := collection.New()
		coll.SetSearchWorkers(1)
		st := stats.NewShard()
		coll.SetStatsShard(st)
		rp.mirror = append(rp.mirror, coll)
		rp.mstats = append(rp.mstats, st)
		rp.mplans = append(rp.mplans, engine.NewPlanCache(128, 0))
	}
	return rp, nil
}

func (rp *replay) close() {
	rp.h.Close()
	ctx := context.Background()
	_ = rp.st.Close(ctx)
	_ = rp.st2.Close(ctx)
	_ = rp.bare.Close(ctx)
	_ = rp.side.Close()
}

// serve runs one request through the handler.
func (rp *replay) serve(method, path string, body []byte) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	rp.h.ServeHTTP(rec, req)
	return rec
}

// add replays one document write at every level.
func (rp *replay) add(d doc) error {
	rp.op++
	op := rp.op
	body, _ := json.Marshal(map[string]string{"name": d.Name, "xml": d.XML})
	var status int
	root := rp.t.call(op, 0, spServeAdd, func() { status = rp.serve(http.MethodPost, "/api/v1/docs", body).Code })
	if status != http.StatusCreated {
		return fmt.Errorf("replay: add %s: status %d", d.Name, status)
	}
	var err error
	addID := rp.t.call(op, root, spAddXML, func() { err = rp.st2.AddXML(d.Name, d.XML) })
	if err != nil {
		return err
	}
	rp.t.call(op, root, spAddBare, func() { err = rp.bare.AddXML(d.Name, d.XML) })
	if err != nil {
		return err
	}
	var parsed *xmltree.Document
	rp.t.call(op, addID, spXMLParse, func() { parsed, err = xmltree.ParseString(d.Name, d.XML) })
	if err != nil {
		return err
	}
	i := rp.st.ShardIndex(d.Name)
	rp.t.call(op, addID, spPut, func() { rp.side.Shard(i).Put(parsed, gindex.HashDoc(parsed)) })
	// The mirror indexes the store's own copy of the document, so that
	// its evaluations walk the memory store.Run's do.
	shared := rp.st.Engine(d.Name).Document()
	collID := rp.t.call(op, addID, spCollAdd, func() { err = rp.mirror[i].Add(shared) })
	rp.t.call(op, collID, spIndexNew, func() { _ = index.New(shared) })
	return err
}

func (rp *replay) remove(name string) {
	rp.serve(http.MethodDelete, "/api/v1/docs/"+name, nil)
	rp.st2.Remove(name)
	rp.bare.Remove(name)
	i := rp.st.ShardIndex(name)
	rp.mirror[i].Remove(name)
	rp.side.Shard(i).Remove(name)
}

// search replays one search at every level and checks the handler's
// answer against the oracle.
func (rp *replay) search(s *shape) error {
	rp.op++
	op := rp.op
	ctx := context.Background()
	// One untimed pass first, through the handler (the store's copy of
	// the documents) and through the mirror's shards (their own copy).
	// Every level below is then timed warm; timed cold, a parent would
	// be charged the cache misses its re-executed children no longer
	// have, and the difference would show up as self time that is not
	// there.
	rp.serve(http.MethodGet, s.path(), nil)
	if wq, err := query.Parse(s.Keywords, s.Filter); err == nil {
		for i, coll := range rp.mirror {
			cand := rp.st.TermIndex().Shard(i).Candidates(wq, cost.DefaultPostingPrune())
			_, _ = coll.RunContextOn(ctx, wq, query.Options{Auto: true}, cand.Names)
		}
	}
	var rec *httptest.ResponseRecorder
	root := rp.t.call(op, 0, spServeSearch, func() { rec = rp.serve(http.MethodGet, s.path(), nil) })
	o := searchOp(s)
	if err := o.check(rec.Code, rec.Body.Bytes()); err != nil {
		return fmt.Errorf("replay: %s: %w", s.Keywords, err)
	}
	rp.searches++
	rp.respBytes += rec.Body.Len()

	var q query.Query
	var err error
	rp.t.call(op, root, spParse, func() { q, err = query.Parse(s.Keywords, s.Filter) })
	if err != nil {
		return err
	}
	opts := query.Options{Auto: true}
	var res *store.Result
	runID := rp.t.call(op, root, spRun, func() { res, err = rp.st.Run(ctx, q, opts, searchLimit) })
	if err != nil {
		return err
	}
	rp.answers += res.Total

	for i, coll := range rp.mirror {
		shardOpts := opts
		var outcome engine.PlanOutcome
		start := time.Now()
		shardOpts.Plan, outcome = rp.mplans[i].Plan(q, opts.Chooser, rp.mstats[i])
		d := time.Since(start)
		if outcome == engine.PlanHit {
			rp.t.record(op, runID, spPlanHit, start, d)
		} else {
			rp.t.record(op, runID, spPlanCold, start, d)
		}

		var cand gindex.Candidates
		rp.t.call(op, runID, spCandidates, func() {
			cand = rp.st.TermIndex().Shard(i).Candidates(q, cost.DefaultPostingPrune())
		})
		rp.candTotal += cand.Total
		rp.candKept += len(cand.Names)
		collID := rp.t.call(op, runID, spCollRun, func() { _, err = coll.RunContextOn(ctx, q, shardOpts, cand.Names) })
		if err != nil {
			return err
		}
		for _, name := range cand.Names {
			eng := coll.Engine(name)
			if eng == nil {
				continue
			}
			rp.docsEval++
			var ans *engine.Answer
			engID := rp.t.call(op, collID, spEngineRun, func() { ans, err = eng.RunContext(ctx, q, shardOpts) })
			if err != nil {
				return err
			}
			var ev query.Result
			rp.t.call(op, engID, spEvaluate, func() { ev, err = query.EvaluateContext(ctx, eng.Index(), q, shardOpts) })
			if err != nil {
				return err
			}
			rp.ops = addCounters(rp.ops, ev.Stats.Ops)
			rp.stages.Merge(ev.Stats.Stages)
			rp.t.call(op, collID, spRank, func() {
				ranking.New(eng.Index(), collection.RankTerms(q), ranking.DefaultWeights()).Rank(ans.Result.Answers)
			})
			rp.t.call(op, engID, spLookup, func() {
				for _, alts := range q.Groups {
					for _, term := range alts {
						eng.Index().Lookup(term)
					}
				}
			})
		}
	}
	return nil
}

func addCounters(a, b obs.CounterSnapshot) obs.CounterSnapshot {
	a.Joins += b.Joins
	a.JoinMemoHits += b.JoinMemoHits
	a.DedupProbes += b.DedupProbes
	return a
}

// traceOps is how many window operations a replay runs. The count is
// fixed, not timed, so that the counts the replay reports repeat
// exactly.
func traceOps(workload string, sc scale) int {
	n := map[string]int{"search-selective": 300, "search-joinheavy": 120, "ingest-mixed": 200, "restart-replica": 300}[workload]
	if sc.name == "smoke" {
		n /= 10
	}
	return n
}

// runReplay is the in-process half of a -trace 1 run. r has finished
// its live pass; its idle-probe median is the live side of net.self_ms.
func runReplay(r *runner, root string) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	began := time.Now()
	res, c := r.res, r.c
	rp, err := newReplay(c, r.runDir)
	if err != nil {
		return err
	}
	defer rp.close()

	// The corpus load, peeled like any other write.
	for _, d := range c.docs {
		if err := rp.add(d); err != nil {
			return err
		}
	}
	if err := rp.search(c.canary); err != nil {
		return fmt.Errorf("red flag: %w", err)
	}

	// The in-process side of net.self_ms: the idle probe's searches
	// through the handler alone. The shapes differ in cost, so the two
	// sides are paired search by search and the median is taken of the
	// differences, not the difference of two medians.
	var probe []float64
	for i, s := range r.probeShapes() {
		start := time.Now()
		rp.serve(http.MethodGet, s.path(), nil)
		probe = append(probe, r.idleLat[i]-float64(time.Since(start))/1e6)
	}
	res.set("net.self_ms", quantile(probe, 0.5))

	// The workload's own operations. Everything before this point is
	// excluded from the search table. The collector is held off while
	// they run (up to a 6 GiB heap): with one P and four copies of the
	// corpus live, a single cycle costs a tenth of a second and lands on
	// whichever span is open, which moved rows of the table by a factor
	// of three from run to run. The table is therefore mutator time;
	// what collection costs the server shows end to end.
	runtime.GC()
	debug.SetMemoryLimit(6 << 30)
	gcPercent := debug.SetGCPercent(-1)
	mark := rp.tally
	markSum := map[string]time.Duration{}
	for k, v := range rp.t.sum {
		markSum[k] = v
	}
	n := traceOps(res.Workload, r.sc)
	switch res.Workload {
	case "search-selective", "restart-replica":
		seedOff := map[string]int64{"search-selective": 1, "restart-replica": 4}[res.Workload]
		pick := zipfPick(rand.New(rand.NewSource(c.seed+seedOff)), len(c.rare))
		for i := 0; i < n; i++ {
			if err := rp.search(c.rare[pick()]); err != nil {
				return err
			}
		}
	case "search-joinheavy":
		rng := rand.New(rand.NewSource(c.seed + 2))
		for i := 0; i < n; i++ {
			if err := rp.search(c.common[rng.Intn(len(c.common))]); err != nil {
				return err
			}
		}
	case "ingest-mixed":
		// Searches and writes alternate, as the merged schedule's do.
		// The writes plant nothing: the replay registers no standing
		// query here, so every search is evaluated and peels.
		pick := zipfPick(rand.New(rand.NewSource(c.seed+3)), len(c.rare))
		for i := 0; i < n; i++ {
			if err := rp.search(c.rare[pick()]); err != nil {
				return err
			}
			d, err := c.freshDoc(r.sc, i, -1)
			if err != nil {
				return err
			}
			if err := rp.add(d); err != nil {
				return err
			}
			if i%10 == 9 {
				rp.remove(fmt.Sprintf("w%06d.xml", i-9))
			}
		}
	}
	debug.SetGCPercent(gcPercent)
	t := rp.t
	since := func(name string) float64 { return float64(t.sum[name]-markSum[name]) / 1e6 }
	ns := float64(rp.searches - mark.searches)
	per := func(ms float64) float64 { return ms / ns }

	handler := per(since(spServeSearch))
	parse := per(since(spParse))
	run := per(since(spRun))
	plan := per(since(spPlanCold) + since(spPlanHit))
	cand := per(since(spCandidates))
	coll := per(since(spCollRun))
	eng := per(since(spEngineRun))
	eval := per(since(spEvaluate))
	rank := per(since(spRank))
	rows := []struct {
		name string
		ms   float64
	}{
		{"httpapi.search.self_ms", handler - run - parse},
		{"query.parse_ms", parse},
		{"store.run.self_ms", run - plan - cand - coll},
		{"engine.plan_ms", plan},
		{"gindex.candidates_ms", cand},
		{"collection.run.self_ms", coll - eng - rank},
		{"engine.run.self_ms", eng - eval},
		{"ranking.rank_ms", rank},
		{"query.eval_ms", eval},
	}
	for _, row := range rows {
		res.set(row.name, row.ms)
	}
	res.set("trace.handler_serial_ms", handler)
	res.set("trace.residual_ratio", (run-plan-cand-coll+coll-eng-rank)/handler)
	res.set("httpapi.search.resp_bytes", float64(rp.respBytes-mark.respBytes)/ns)
	res.set("gindex.pruned_ratio", 1-float64(rp.candKept-mark.candKept)/float64(max(1, rp.candTotal-mark.candTotal)))
	res.set("engine.plan_cold_ms", t.perCall(spPlanCold))
	res.set("engine.plan_hit_ms", t.perCall(spPlanHit))
	res.set("query.docs_evaluated", float64(rp.docsEval-mark.docsEval)/ns)
	res.set("query.answers_per_search", float64(rp.answers-mark.answers)/ns)
	joins := float64(rp.ops.Joins - mark.ops.Joins)
	memo := float64(rp.ops.JoinMemoHits - mark.ops.JoinMemoHits)
	res.set("core.joins_per_search", joins/ns)
	res.set("core.dedup_probes_per_search", float64(rp.ops.DedupProbes-mark.ops.DedupProbes)/ns)
	res.set("core.memo_hit_ratio", memo/max(1, memo+joins))
	// Program-reported: the evaluator's own stage clocks, summed over
	// the documents of a search. They lie inside query.eval_ms.
	stage := func(s obs.Stage) float64 { return float64(rp.stages[s]-mark.stages[s]) / 1e6 / ns }
	res.set("core.select_ms", stage(obs.StageSelection))
	res.set("core.reduce_ms", stage(obs.StageReduction))
	res.set("core.join_ms", stage(obs.StageJoin))
	res.set("core.ns_per_join", float64(rp.stages[obs.StageJoin]-mark.stages[obs.StageJoin])/max(1, joins))
	res.set("index.lookup_ms", per(since(spLookup)))

	// The write levels, over every document the replay added.
	// store.addxml.self_ms comes from the store without a term index:
	// what is left of a durable AddXML after the parse and the
	// collection's share is the WAL append and the locks. (Subtracting
	// a separately timed gindex Put from the indexed AddXML does not
	// work: the stand-alone Put runs slower than the one inside the
	// store, and the difference went negative.)
	xmlParse, collAdd := t.typical(spXMLParse), t.typical(spCollAdd)
	res.set("httpapi.adddoc.self_ms", t.typical(spServeAdd)-t.typical(spAddXML))
	res.set("store.addxml.self_ms", t.typical(spAddBare)-xmlParse-collAdd)
	put := t.typical(spPut)
	res.set("xmltree.parse_ms", xmlParse)
	res.set("gindex.put_ms", put)
	res.set("collection.add_ms", collAdd)
	res.set("index.build_ms", t.typical(spIndexNew))
	res.set("xmltree.bytes_per_node", float64(c.userBytes)/float64(c.nodes))
	postings := 0
	for _, d := range c.parsed {
		postings += index.New(d).Postings()
	}
	res.set("index.postings_per_doc", float64(postings)/float64(len(c.parsed)))

	if err := rp.probes(r, res); err != nil {
		return err
	}
	res.set("trace.replay_s", time.Since(began).Seconds())

	fmt.Printf("\n-- layer table: %s, ms per search, %d searches replayed serially\n", res.Workload, int(ns))
	sum := 0.0
	for _, row := range rows {
		fmt.Printf("%-28s %10.4f %6.1f%%\n", strings.TrimSuffix(row.name, "_ms"), row.ms, 100*row.ms/handler)
		sum += row.ms
	}
	fmt.Printf("%-28s %10.4f\n%-28s %10.4f\n", "sum", sum, "trace.handler_serial", handler)

	out := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"workload": res.Workload, "seed": c.seed, "scale": r.sc.name, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "trace-"+res.Workload+".json"), data, 0o644)
}

// timed runs fn and returns its duration in ms.
func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return float64(time.Since(start)) / 1e6, err
}

// probes times the calls no search or write reaches: opening a store,
// compaction, snapshot save and load, term-index flush and open, the
// replication snapshot and apply, and a standing-query delta. They run
// on the replay's own stores, after the operations.
func (rp *replay) probes(r *runner, res *result) error {
	ctx := context.Background()
	c := rp.c

	// Cold open of the directories as the load left them: a compaction
	// snapshot plus the WAL written since. Then the same without the
	// term index, which has to re-tokenize every document.
	if err := rp.st2.Close(ctx); err != nil {
		return err
	}
	open := func(opts store.Options) (float64, error) {
		var st *store.Store
		ms, err := timed(func() (err error) { st, err = store.Open(opts); return })
		if err != nil {
			return 0, err
		}
		return ms, st.Close(ctx)
	}
	ms, err := open(rp.opts2)
	if err != nil {
		return err
	}
	res.set("store.open_ms", ms)
	noIndex := rp.opts2
	noIndex.IndexDir = ""
	if ms, err = open(noIndex); err != nil {
		return err
	}
	res.set("store.open_noindex_ms", ms)
	if rp.st2, err = store.Open(rp.opts2); err != nil {
		return err
	}

	if ms, err = timed(rp.st2.Compact); err != nil {
		return err
	}
	res.set("store.compact_ms", ms)
	info, err := os.Stat(filepath.Join(rp.opts2.Dir, "store.snap"))
	if err != nil {
		return err
	}
	res.set("store.compact_bytes_rewritten", float64(info.Size()))

	snap := filepath.Join(rp.dir, "t-probe.snap")
	if ms, err = timed(func() error { return snapshot.SaveFile(snap, c.parsed...) }); err != nil {
		return err
	}
	res.set("snapshot.save_ms", ms)
	if ms, err = timed(func() error { _, err := snapshot.LoadFile(snap); return err }); err != nil {
		return err
	}
	res.set("snapshot.load_ms", ms)

	if ms, err = timed(rp.side.Flush); err != nil {
		return err
	}
	res.set("gindex.flush_ms", ms)
	if err := rp.side.Close(); err != nil {
		return err
	}
	sideOpts := gindex.Options{Dir: filepath.Join(rp.dir, "t-side"), Shards: rp.st.Shards()}
	if ms, err = timed(func() (err error) { rp.side, err = gindex.Open(sideOpts); return }); err != nil {
		return err
	}
	res.set("gindex.open_ms", ms)

	// Replication: the snapshot a bootstrapping follower fetches, then
	// a batch of records read from the primary's log and applied to an
	// in-memory follower.
	var data []byte
	var pos []store.WALPosition
	if ms, err = timed(func() (err error) { data, pos, err = rp.st2.ReplicationSnapshot(); return }); err != nil {
		return err
	}
	res.set("repl.snapshot_ms", ms)
	follower, err := store.Open(store.Options{MemoryIndex: true})
	if err != nil {
		return err
	}
	defer follower.Close(ctx)
	docs, err := store.DecodeSnapshot(data)
	if err != nil {
		return err
	}
	if err := follower.ReplaceAll(docs); err != nil {
		return err
	}
	const records = 200
	for j := 0; j < records; j++ {
		d, err := c.freshDoc(r.sc, 1_000_000+j, -1)
		if err != nil {
			return err
		}
		if err := rp.st2.AddXML(d.Name, d.XML); err != nil {
			return err
		}
	}
	applied := 0
	ms, err = timed(func() error {
		for _, p := range pos {
			frames, _, err := rp.st2.ReadWALFrames(p.Shard, p.Epoch, p.Offset, 64<<20)
			if err != nil {
				return err
			}
			n, err := follower.ApplyReplicated(frames)
			if err != nil {
				return err
			}
			applied += n
		}
		return nil
	})
	if err != nil {
		return err
	}
	if applied != records || follower.Len() != rp.st2.Len() {
		return fmt.Errorf("replay: follower applied %d of %d records and holds %d of %d documents", applied, records, follower.Len(), rp.st2.Len())
	}
	res.set("repl.apply_ms_per_record", ms/records)

	// Standing query: from the write's return (the change is queued by
	// then) to the delta's arrival on the subscription.
	sub, err := rp.h.Watch().Register(rareTerms(0), rareFilter, query.Options{Auto: true}, "")
	if err != nil {
		return err
	}
	var deltas []float64
	for j := 0; len(deltas) < 50; j++ {
		d, err := c.freshDoc(r.sc, 2_000_000+j, 0)
		if err != nil {
			return err
		}
		// A document whose witnesses lie too far apart for the filter
		// adds no answer and sends no delta.
		if e, err := freshContribution(d, r.watchedShape(0)); err != nil || e.total == 0 {
			continue
		}
		since := sub.Seq()
		if err := rp.st.AddXML(d.Name, d.XML); err != nil {
			return err
		}
		wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		ms, err := timed(func() error { _, _, err := sub.Wait(wctx, since); return err })
		cancel()
		if err != nil {
			return fmt.Errorf("replay: standing-query delta for %s: %w", d.Name, err)
		}
		deltas = append(deltas, ms)
	}
	res.set("standing.delta_ms", quantile(deltas, 0.5))
	return nil
}
