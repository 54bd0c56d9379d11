package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/collection"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/ranking"
)

// freshContribution is what one fresh document adds to its watched
// pair's answer set, computed on the tree path like the oracle.
func freshContribution(d doc, s *shape) (expectation, error) {
	eng, err := engine.LoadString(d.Name, d.XML)
	if err != nil {
		return expectation{}, err
	}
	q, err := query.Parse(s.Keywords, s.Filter)
	if err != nil {
		return expectation{}, err
	}
	ans, err := eng.RunContext(context.Background(), q, query.Options{Strategy: cost.PushDown})
	if err != nil {
		return expectation{}, err
	}
	var hits []collection.Hit
	for _, sc := range ranking.New(eng.Index(), collection.RankTerms(q), ranking.DefaultWeights()).Rank(ans.Result.Answers) {
		hits = append(hits, collection.Hit{Document: d.Name, Fragment: sc.Fragment, Score: sc.Score})
	}
	return expectationOf(hits), nil
}

// watchedShape returns the shape of watched pair p.
func (r *runner) watchedShape(p int) *shape {
	for _, s := range r.c.rare {
		if s.Keywords == rareTerms(p) {
			return s
		}
	}
	panic("benchmark: watched pair missing from the rare shapes")
}

// watched is one standing query of ingest-mixed: its subscription, and
// what the write stream adds to the shape's answers.
type watched struct {
	sh       *shape
	id       string
	added    map[hitKey]float64
	maxTotal int
}

// growingSearchOp is a search on a watched shape while writes add
// answers to it: the total may only grow, within what the stream can
// add, and every hit must be an answer the oracle knows, with its
// score, in rank order.
func (wt *watched) growingSearchOp() op {
	o := searchOp(wt.sh)
	o.check = func(status int, body []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("status %d", status)
		}
		var b searchBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		if b.Total < wt.sh.want.total || b.Total > wt.maxTotal {
			return fmt.Errorf("total %d outside [%d,%d]", b.Total, wt.sh.want.total, wt.maxTotal)
		}
		prev := 0.0
		for i, h := range b.Hits {
			k := hitKey{h.Document, nodesKey(h.Nodes)}
			want, ok := wt.sh.want.scores[k]
			if !ok {
				want, ok = wt.added[k]
			}
			if !ok || want != h.Score || (i > 0 && h.Score > prev) {
				return fmt.Errorf("hit %d (%s %v, score %v) is not a ranked answer", i, h.Document, h.Nodes, h.Score)
			}
			prev = h.Score
		}
		return nil
	}
	return o
}

// lagTracker pairs each watched write's due instant with the arrival
// of its delta, whichever is noticed first.
type lagTracker struct {
	mu    sync.Mutex
	sent  map[string]time.Time // writes whose delta is still due
	early map[string]time.Time // deltas that beat their write's bookkeeping
	ms    []float64
}

func (l *lagTracker) pair(doc string, at time.Time, mine, other map[string]time.Time, sign float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if t, ok := other[doc]; ok {
		l.ms = append(l.ms, sign*float64(at.Sub(t))/1e6)
		delete(other, doc)
	} else {
		mine[doc] = at
	}
}

func (l *lagTracker) wrote(doc string, due time.Time) { l.pair(doc, due, l.sent, l.early, -1) }
func (l *lagTracker) delta(doc string, at time.Time)  { l.pair(doc, at, l.early, l.sent, 1) }

// await waits, up to five seconds, until every write has met its delta,
// and returns how many have not.
func (l *lagTracker) await() int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		pending := len(l.sent)
		l.mu.Unlock()
		if pending == 0 || time.Now().After(deadline) {
			return pending
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sseWatch reads one subscription's event stream and reports each
// delta's document and arrival. It ends when ctx does.
func sseWatch(ctx context.Context, base, id string, got func(doc string, at time.Time)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/watch/"+id, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := (&http.Client{}).Do(req) // no timeout: the stream stays open
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("watch stream %s: status %d", id, resp.StatusCode)
	}
	rd := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		at := time.Now()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev struct {
				Type string `json:"type"`
				Doc  string `json:"doc"`
			}
			if json.Unmarshal([]byte(data), &ev) == nil && ev.Type == "delta" {
				got(ev.Doc, at)
			}
		}
	}
}

// registerWatches registers the standing queries on the watched pairs.
func (r *runner) registerWatches(s *server) ([]*watched, error) {
	watches := make([]*watched, watchedPairs)
	for p := range watches {
		sh := r.watchedShape(p)
		body, _ := json.Marshal(map[string]string{"query": sh.Keywords, "filter": sh.Filter})
		o := op{method: http.MethodPost, path: "/api/v1/watch", body: body}
		status, resp, err := r.cl.do(s.base, &o)
		var created struct {
			ID      string `json:"id"`
			Matches int    `json:"matches"`
		}
		if err != nil || status != http.StatusCreated || json.Unmarshal(resp, &created) != nil {
			return nil, fmt.Errorf("register standing query %d: status %d: %v", p, status, err)
		}
		if created.Matches != sh.want.total {
			r.auditf("standing query %d materialized %d answers, want %d", p, created.Matches, sh.want.total)
		}
		watches[p] = &watched{sh: sh, id: created.ID, added: map[hitKey]float64{}, maxTotal: sh.want.total}
	}
	return watches, nil
}

// mixedSchedule builds the merged open-loop schedule of d seconds.
// Writes: 90% fresh documents, every fifth of which plants a watched
// pair; 10% deletes, each of an unwatched document added at least a
// second earlier, so the watched answer sets only grow and a delete
// never races its own add. Reads: the selective mix, half a period off
// the writes so the two streams interleave. It returns the ops, how
// many fresh documents they add, and which of those owe a delta.
func (r *runner) mixedSchedule(d time.Duration, pick func() int, watches []*watched, bytes map[string]int64) ([]op, int, map[string]bool, error) {
	var ops []op
	var deletable []int // fresh document numbers, in schedule order
	fresh := 0
	owesDelta := map[string]bool{}
	for i := 0; i < int(d.Seconds()*mixedWriteRPS); i++ {
		due := time.Duration(float64(i) / mixedWriteRPS * float64(time.Second))
		if i%10 == 9 && len(deletable) > mixedWriteRPS {
			o := deleteOp(fmt.Sprintf("w%06d.xml", deletable[0]))
			deletable = deletable[1:]
			o.due = due
			ops = append(ops, o)
			continue
		}
		p := -1
		if fresh%5 == 0 {
			p = (fresh / 5) % watchedPairs
		}
		doc, err := r.c.freshDoc(r.sc, fresh, p)
		if err != nil {
			return nil, 0, nil, err
		}
		bytes[doc.Name] = int64(len(doc.XML))
		if p >= 0 {
			e, err := freshContribution(doc, watches[p].sh)
			if err != nil {
				return nil, 0, nil, err
			}
			for k, v := range e.scores {
				watches[p].added[k] = v
			}
			watches[p].maxTotal += e.total
			// Witnesses planted too far apart for the filter add no
			// answer, and then no delta is due.
			owesDelta[doc.Name] = e.total > 0
		} else {
			deletable = append(deletable, fresh)
		}
		o := addOp(doc)
		o.due = due
		ops = append(ops, o)
		fresh++
	}
	byShape := map[*shape]*watched{}
	for _, wt := range watches {
		byShape[wt.sh] = wt
	}
	for i := 0; i < int(d.Seconds()*mixedReadRPS); i++ {
		sh := r.c.rare[pick()]
		o := searchOp(sh)
		if wt, ok := byShape[sh]; ok {
			o = wt.growingSearchOp()
		}
		o.due = time.Duration((float64(i) + 0.5) / mixedReadRPS * float64(time.Second))
		ops = append(ops, o)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops, fresh, owesDelta, nil
}

// asyncBurst is the closed loop on the async pipeline: a fixed number
// of documents, so that every run ends in the same state whatever its
// speed. Each connection POSTs its next document as soon as the
// previous one is accepted, retrying on 429 (backpressure is the
// pipeline working, not a failure); the clock stops when every document
// is searchable, that is when the server holds n more than docsBefore.
func (r *runner) asyncBurst(s *server, first, n, docsBefore int, live map[string]bool, bytes map[string]int64) error {
	ops := make([]op, n)
	for i := range ops {
		d, err := r.c.freshDoc(r.sc, first+i, -1)
		if err != nil {
			return err
		}
		bytes[d.Name] = int64(len(d.XML))
		live[d.Name] = true
		ops[i] = addOp(d)
		ops[i].path += "?async=1"
		ops[i].check = wantStatus(http.StatusAccepted)
		ops[i].retry = http.StatusTooManyRequests
	}
	t0 := time.Now()
	r.total.merge(r.cl.runClosedList(s.base, ops))
	drained := false
	for !drained && time.Since(t0) < 60*time.Second {
		var h struct {
			Documents int `json:"documents"`
			Depth     int `json:"ingest_queue_depth"`
		}
		_, err := r.cl.getJSON(s.base+"/healthz", &h)
		drained = err == nil && h.Depth == 0 && h.Documents == docsBefore+n
		time.Sleep(time.Millisecond)
	}
	if !drained {
		r.auditf("async ingest did not drain")
	}
	r.res.set("ingest_throughput_docs_s", float64(n)/time.Since(t0).Seconds())
	return nil
}

func (r *runner) ingestMixed() error {
	s, _, err := r.setups()
	if err != nil {
		return err
	}
	open, closed, async := r.span(0.6), r.span(0.2), r.span(0.2)
	watches, err := r.registerWatches(s)
	if err != nil {
		return err
	}
	// One receive-only event stream per standing query.
	lag := &lagTracker{sent: map[string]time.Time{}, early: map[string]time.Time{}}
	ctx, cancel := context.WithCancel(context.Background())
	var streams sync.WaitGroup
	defer func() { cancel(); streams.Wait() }()
	for _, wt := range watches {
		streams.Add(1)
		go func(id string) {
			defer streams.Done()
			if err := sseWatch(ctx, s.base, id, lag.delta); err != nil {
				r.auditf("watch stream %s: %v", id, err)
			}
		}(wt.id)
	}

	// After the search warm-up, the schedule's first second brings the
	// write path up to speed; only the ops due after it are reported,
	// and only their deltas are awaited.
	const lead = time.Second
	pick := zipfPick(rand.New(rand.NewSource(r.c.seed+3)), len(r.c.rare))
	bytes := map[string]int64{} // XML size of every fresh document
	ops, fresh, owesDelta, err := r.mixedSchedule(lead+open, pick, watches, bytes)
	if err != nil {
		return err
	}
	for i := range ops {
		ops[i].warm = ops[i].due < lead
	}
	r.warm(s.base, r.c.rare, pick)
	r.canaryAudit(s, "before the open loop")
	w := r.cl.runOpen(s.base, ops, func(o *op, due time.Time) {
		if owesDelta[o.doc] && !o.warm {
			lag.wrote(o.doc, due)
		}
	})
	r.canaryAudit(s, "after the open loop")
	r.recordSearch(w)
	r.res.setSeries("ingest_p50_ms", "ingest_p99_ms", w.lat[opWrite])
	r.res.set("store.ingest_stall_max_ms", maxOf(w.lat[opWrite]))
	live := map[string]bool{}
	for _, n := range w.acked {
		live[n] = true
	}
	for _, n := range w.ackedDel {
		delete(live, n)
	}

	// Closed-loop search beside nothing else, so that
	// search_throughput_rps exists on every workload. The watched
	// answer sets stand still from here on, at the corpus's answers
	// plus everything the stream added.
	if missing := lag.await(); missing > 0 {
		r.auditf("%d watched writes produced no delta", missing)
	}
	r.res.setSeries("watch_lag_p50_ms", "watch_lag_p99_ms", lag.ms)
	for _, wt := range watches {
		for k, v := range wt.added {
			wt.sh.want.scores[k] = v
		}
		wt.sh.want = expectationOfScores(wt.sh.want.scores)
	}
	r.closedSearch(s.base, r.c.rare, pick, closed)
	if err := r.asyncBurst(s, fresh, int(async.Seconds()*asyncDocsPS), len(r.c.docs)+len(live), live, bytes); err != nil {
		return err
	}

	// Audits: every acknowledged document is listed, and each standing
	// view equals both the oracle's final answer and a fresh evaluation
	// (strategy=push-down has another cache identity than the view, so
	// it is evaluated for real).
	listed, err := r.listDocs(s)
	if err != nil {
		return err
	}
	for n := range live {
		if !listed[n] {
			r.auditf("acknowledged document %s is not listed", n)
			break
		}
	}
	for p, wt := range watches {
		var view, freshRun searchBody
		if _, err := r.cl.getJSON(s.base+"/api/v1/watch/"+wt.id+"?snapshot=1", &view); err != nil {
			return err
		}
		if _, err := r.cl.getJSON(s.base+wt.sh.path()+"&strategy=push-down", &freshRun); err != nil {
			return err
		}
		if len(view.Hits) != freshRun.Total || len(view.Hits) != wt.maxTotal {
			r.auditf("standing view %d has %d answers, a fresh search %d, the oracle %d", p, len(view.Hits), freshRun.Total, wt.maxTotal)
			continue
		}
		for i, h := range freshRun.Hits {
			if view.Hits[i].Score != h.Score {
				r.auditf("standing view %d differs from a fresh search at rank %d", p, i)
				break
			}
		}
	}
	r.canaryAudit(s, "after the closed loop")
	r.scrape(s, s)
	for n := range live {
		r.liveBytes += bytes[n]
	}
	cancel()
	streams.Wait()
	return r.finish(s)
}
