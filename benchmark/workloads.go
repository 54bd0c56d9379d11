package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Fixed offered rates, per second: about 20% (selective) and 40%
// (join-heavy) of what the seed commit sustains closed-loop on the
// recorded machine (README.md). They are never calibrated at run time,
// so the parent commit and a change are always offered the same load.
const (
	selectiveRPS  = 300
	joinHeavyRPS  = 100
	mixedWriteRPS = 150
	mixedReadRPS  = 150
	replicaRPS    = 300
	primaryDocsPS = 50
	// asyncDocsPS sizes the async burst of ingest-mixed: the count is
	// fixed at this many documents per second of its share of -seconds.
	asyncDocsPS = 800
)

// latencyLimit feeds client.over_limit_ratio, in ms.
var latencyLimit = map[string]float64{
	"search-selective": 10, "search-joinheavy": 100, "ingest-mixed": 50, "restart-replica": 10,
}

// seedIdleSearchMS is the idle selective-search median of the seed
// commit on the recorded machine (README.md). A run whose idle search
// is ten times slower is measuring a broken build or a broken machine,
// and stops.
const seedIdleSearchMS = 0.72

// runner holds what every workload needs.
type runner struct {
	bin     string
	sc      scale
	seconds float64
	c       *corpus
	cl      *client
	runDir  string
	res     *result

	total     window    // every op of every window: attempted and failed
	servers   []*server // every process started: rss_peak_mb and cleanup
	auditMu   sync.Mutex
	auditFail int       // oracle and audit failures outside the windows
	liveBytes int64     // XML bytes live at the end: the corpus plus what the run added
	idleLat   []float64 // idle-probe search latencies in send order, ms
	lastTag   string    // directories of the server the set-ups kept
}

// window share of -seconds.
func (r *runner) span(share float64) time.Duration {
	return time.Duration(r.seconds * share * float64(time.Second))
}

func (r *runner) auditf(format string, args ...any) {
	r.auditMu.Lock() // the watch streams report from their own goroutines
	defer r.auditMu.Unlock()
	r.auditFail++
	r.res.Notes = append(r.res.Notes, fmt.Sprintf(format, args...))
}

func (r *runner) dirs(tag string) (data, index string) {
	return filepath.Join(r.runDir, tag+"-data"), filepath.Join(r.runDir, tag+"-index")
}

func (r *runner) start(args ...string) (*server, time.Time, error) {
	t0 := time.Now()
	s, err := startServer(r.bin, args...)
	if err != nil {
		return nil, t0, err
	}
	r.servers = append(r.servers, s)
	return s, t0, nil
}

func (r *runner) startStore(tag string, extra ...string) (*server, time.Time, error) {
	data, index := r.dirs(tag)
	return r.start(append(storeFlags(data, index), extra...)...)
}

// closeAll stops whatever still runs and returns the peak resident
// size over all server processes, in MB.
func (r *runner) closeAll() float64 {
	peak := 0.0
	for _, s := range r.servers {
		_ = s.stop(syscall.SIGKILL)
		peak = max(peak, s.peakMB)
	}
	return peak
}

// canary runs the Figure 1 query against a server.
func (r *runner) canary(s *server) error {
	o := searchOp(r.c.canary)
	status, body, err := r.cl.do(s.base, &o)
	if err != nil {
		return err
	}
	return o.check(status, body)
}

func (r *runner) canaryAudit(s *server, when string) {
	if err := r.canary(s); err != nil {
		r.auditf("canary %s: %v", when, err)
	}
}

// setup measures one full set-up: exec → corpus loaded over HTTP →
// ready → canary correct. The load is a closed loop of synchronous
// POSTs on every connection, so it also yields the bulk-load ingest
// latencies.
func (r *runner) setup(tag string, extra ...string) (*server, float64, *window, error) {
	s, t0, err := r.startStore(tag, extra...)
	if err != nil {
		return nil, 0, nil, err
	}
	if err := s.waitReady(r.cl.http, 30*time.Second); err != nil {
		return nil, 0, nil, err
	}
	ops := make([]op, len(r.c.docs))
	for i, d := range r.c.docs {
		ops[i] = addOp(d)
	}
	w := r.cl.runClosedList(s.base, ops)
	if w.failed > 0 {
		return nil, 0, nil, fmt.Errorf("corpus load: %d of %d failed: %v", w.failed, w.attempted, w.firstErr)
	}
	if err := s.waitReady(r.cl.http, 30*time.Second); err != nil {
		return nil, 0, nil, err
	}
	if err := r.canary(s); err != nil {
		return nil, 0, nil, fmt.Errorf("red flag: canary after load: %w", err)
	}
	return s, time.Since(t0).Seconds(), w, nil
}

// setups runs the scale's number of set-ups, each on fresh
// directories, keeps the last server and reports the median set-up
// time. The discarded servers are killed: their state is not needed
// again. It ends with the idle probe, which is the second red flag.
func (r *runner) setups(extra ...string) (*server, *window, error) {
	var times []float64
	var keep *server
	load := &window{}
	for i := 0; i < r.sc.setups; i++ {
		r.lastTag = fmt.Sprintf("s%d", i)
		s, secs, w, err := r.setup(r.lastTag, extra...)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, secs)
		load.merge(w)
		keep = s
		if i < r.sc.setups-1 {
			if err := s.stop(syscall.SIGKILL); err != nil {
				return nil, nil, err
			}
			data, index := r.dirs(r.lastTag)
			os.RemoveAll(data)
			os.RemoveAll(index)
		}
	}
	r.res.set("setup_s", median(times))
	r.total.merge(load)
	keep.sampleRSS()
	r.res.set("proc.rss_after_load_mb", keep.peakMB)
	r.res.set("proc.rss_bytes_per_doc", keep.peakMB*(1<<20)/float64(len(r.c.docs)))

	// Idle probe: sequential selective searches on one connection.
	var probe []op
	for _, sh := range r.probeShapes() {
		probe = append(probe, searchOp(sh))
	}
	cpu0 := procCPUSeconds(keep.pid)
	pw := (&client{http: r.cl.http, conns: 1}).runClosedList(keep.base, probe)
	r.res.set("proc.cpu_s_per_op", (procCPUSeconds(keep.pid)-cpu0)/float64(len(probe)))
	r.total.merge(pw)
	r.idleLat = pw.lat[opSearch] // one connection: still in send order
	p50 := median(r.idleLat)
	r.res.set("client.idle_search_p50_ms", p50)
	if p50 > 10*seedIdleSearchMS {
		return nil, nil, fmt.Errorf("red flag: idle search median %.2f ms is over 10× the seed commit's %.2f ms", p50, seedIdleSearchMS)
	}
	return keep, load, nil
}

// probeShapes is the idle probe's fixed list of selective searches.
func (r *runner) probeShapes() []*shape {
	pick := zipfPick(rand.New(rand.NewSource(r.c.seed+7)), len(r.c.rare))
	shapes := make([]*shape, 300)
	for i := range shapes {
		shapes[i] = r.c.rare[pick()]
	}
	return shapes
}

// searchSchedule is d seconds of searches at rps, shapes drawn by pick.
func searchSchedule(shapes []*shape, pick func() int, rps float64, d time.Duration) []op {
	ops := make([]op, int(d.Seconds()*rps))
	for i := range ops {
		ops[i] = searchOp(shapes[pick()])
		ops[i].due = time.Duration(float64(i) / rps * float64(time.Second))
	}
	return ops
}

// recordSearch reports an open-loop search window.
func (r *runner) recordSearch(w *window) {
	r.total.merge(w)
	lat := w.lat[opSearch]
	r.res.setSeries("search_p50_ms", "search_p99_ms", lat)
	r.res.set("client.sched_late_p99_ms", quantile(w.late, 0.99))
	r.res.set("client.over_limit_ratio", overLimit(lat, w.failed, latencyLimit[r.res.Workload]))
	r.res.set("client.samples", float64(len(lat)))
}

// warm drives searches closed-loop for the warm-up time. Saturating the
// server is the point: a freshly loaded server's collector still paces
// itself by the heap the load left behind, and only after it has
// allocated that much again does it settle into the cycle the windows
// should see. At the open-loop rates that takes most of a window.
func (r *runner) warm(base string, shapes []*shape, pick func() int) {
	r.total.merge(r.cl.runClosed(base, r.sc.warmup, searchGen(shapes, pick, true)))
}

// searchGen adapts a picker, which is not safe for concurrent use, to
// runClosed's generator.
func searchGen(shapes []*shape, pick func() int, warm bool) func(int) op {
	var mu sync.Mutex
	return func(int) op {
		mu.Lock()
		defer mu.Unlock()
		o := searchOp(shapes[pick()])
		o.warm = warm
		return o
	}
}

// closedSearch measures closed-loop search throughput for d.
func (r *runner) closedSearch(base string, shapes []*shape, pick func() int, d time.Duration) {
	w := r.cl.runClosed(base, d, searchGen(shapes, pick, false))
	r.total.merge(w)
	r.res.set("search_throughput_rps", float64(len(w.lat[opSearch]))/w.elapsed.Seconds())
}

// searchWorkload is the body search-selective and search-joinheavy
// share: warm-up, open loop at rps, closed loop, with the canary
// around every window.
func (r *runner) searchWorkload(shapes []*shape, pick func() int, rps float64) error {
	s, load, err := r.setups()
	if err != nil {
		return err
	}
	r.res.setSeries("ingest_p50_ms", "ingest_p99_ms", load.lat[opWrite])
	r.warm(s.base, shapes, pick)
	r.canaryAudit(s, "before the open loop")
	r.recordSearch(r.cl.runOpen(s.base, searchSchedule(shapes, pick, rps, r.span(0.7)), nil))
	r.canaryAudit(s, "after the open loop")
	r.closedSearch(s.base, shapes, pick, r.span(0.3))
	r.canaryAudit(s, "after the closed loop")
	r.scrape(s, s)
	return r.finish(s)
}

// scrape reads the live servers' own counters once, after the windows:
// the search-side ones from the server that answered the searches, the
// compactions from the one that took the writes (the same server except
// on restart-replica).
func (r *runner) scrape(searched, wrote *server) {
	m, err := searched.scrape(r.cl.http)
	mw := m
	if err == nil && wrote != searched {
		mw, err = wrote.scrape(r.cl.http)
	}
	if err != nil {
		r.auditf("metrics scrape: %v", err)
		return
	}
	ratio := func(hit float64, rest ...float64) float64 {
		all := hit
		for _, v := range rest {
			all += v
		}
		if all == 0 {
			return 0
		}
		return hit / all
	}
	r.res.set("httpapi.shed_total", m["queries_shed_total"])
	r.res.set("store.compactions", mw["compactions_total"])
	r.res.set("engine.plan_hit_ratio", ratio(m["planner_plan_hits_total"], m["planner_plan_misses_total"], m["planner_replans_total"]))
	// Every evaluated search consults the prefilter once per shard; a
	// search the standing view answers consults none.
	r.res.set("standing.fastpath_hit_ratio", ratio(m["standing_cache_hits_total"], m["index_prefilters_total"]/max(1, m["_shards"])))
	r.res.set("standing.dropped_total", m["standing_changes_dropped_total"])
}

// finish is the tail every workload shares: graceful stop, bytes on
// disk per user byte, then timed restarts on the directories the
// workload left behind (unless the workload measured restarts itself).
func (r *runner) finish(s *server, extra ...string) error {
	data, index := r.dirs(r.lastTag)
	if err := s.stop(syscall.SIGTERM); err != nil {
		return err
	}
	live := r.liveBytes
	wal := dirBytes(data, func(n string) bool { return strings.HasPrefix(n, "wal-") })
	snap := dirBytes(data, func(n string) bool { return n == "store.snap" })
	seg := dirBytes(index, func(string) bool { return true })
	r.res.set("disk_bytes_per_user_byte", float64(wal+snap+seg)/float64(live))
	r.res.set("store.wal_bytes_per_user_byte", float64(wal)/float64(live))
	r.res.set("snapshot.bytes_per_user_byte", float64(snap)/float64(live))
	r.res.set("gindex.segment_bytes_per_user_byte", float64(seg)/float64(live))
	if _, done := r.res.Metrics["restart_ready_s"]; done {
		return nil
	}
	var times []float64
	for i := 0; i < r.sc.restarts; i++ {
		s2, secs, err := r.restart(extra...)
		if err != nil {
			return err
		}
		times = append(times, secs)
		if err := s2.stop(syscall.SIGTERM); err != nil {
			return err
		}
	}
	r.res.set("restart_ready_s", median(times))
	return nil
}

// restart times exec → /readyz 200 → correct canary search on the
// kept directories.
func (r *runner) restart(extra ...string) (*server, float64, error) {
	s, t0, err := r.startStore(r.lastTag, extra...)
	if err != nil {
		return nil, 0, err
	}
	if err := s.waitReady(r.cl.http, 60*time.Second); err != nil {
		return nil, 0, err
	}
	if err := r.canary(s); err != nil {
		return nil, 0, fmt.Errorf("red flag: canary after restart: %w", err)
	}
	return s, time.Since(t0).Seconds(), nil
}

func (r *runner) searchSelective() error {
	pick := zipfPick(rand.New(rand.NewSource(r.c.seed+1)), len(r.c.rare))
	return r.searchWorkload(r.c.rare, pick, selectiveRPS)
}

func (r *runner) searchJoinHeavy() error {
	rng := rand.New(rand.NewSource(r.c.seed + 2))
	return r.searchWorkload(r.c.common, func() int { return rng.Intn(len(r.c.common)) }, joinHeavyRPS)
}

// listDocs returns the names GET /api/v1/docs lists.
func (r *runner) listDocs(s *server) (map[string]bool, error) {
	var body struct {
		Documents []struct {
			Name string `json:"name"`
		} `json:"documents"`
	}
	if status, err := r.cl.getJSON(s.base+"/api/v1/docs", &body); err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /api/v1/docs: status %d: %v", status, err)
	}
	names := make(map[string]bool, len(body.Documents))
	for _, d := range body.Documents {
		names[d.Name] = true
	}
	return names, nil
}

func (r *runner) restartReplica() error {
	s, load, err := r.setups("-role", "primary")
	if err != nil {
		return err
	}
	r.res.setSeries("ingest_p50_ms", "ingest_p99_ms", load.lat[opWrite])

	// Restart cycles: ingest, stop by SIGKILL and SIGTERM in turn, time
	// exec → ready → canary, then check that every synchronously
	// acknowledged document is still there.
	acked := map[string]bool{}
	fresh := 0
	freshBytes := int64(0)
	var ready []float64
	lost := 0
	for cyc := 0; cyc < r.sc.restartCycles; cyc++ {
		ops := make([]op, r.sc.restartIngests)
		for i := range ops {
			d, err := r.c.freshDoc(r.sc, fresh, -1)
			if err != nil {
				return err
			}
			fresh++
			freshBytes += int64(len(d.XML))
			ops[i] = addOp(d)
		}
		w := r.cl.runClosedList(s.base, ops)
		r.total.merge(w)
		for _, n := range w.acked {
			acked[n] = true
		}
		sig := syscall.SIGKILL
		if cyc%2 == 1 {
			sig = syscall.SIGTERM
		}
		if err := s.stop(sig); err != nil {
			return err
		}
		var secs float64
		if s, secs, err = r.restart("-role", "primary"); err != nil {
			return err
		}
		ready = append(ready, secs)
		listed, err := r.listDocs(s)
		if err != nil {
			return err
		}
		for n := range acked {
			if !listed[n] {
				lost++
			}
		}
	}
	r.res.set("restart_ready_s", median(ready))
	r.res.set("store.kill_lost_acks", float64(lost))
	if lost > 0 {
		r.auditf("%d acknowledged documents were lost across restarts", lost)
	}
	wantDocs := len(r.c.docs) + len(acked)

	// Cold replica bootstraps: exec → /readyz 200 with the primary's
	// document count.
	var catchup []float64
	var replica *server
	for i := 0; i < r.sc.replicaBoots; i++ {
		if replica != nil {
			if err := replica.stop(syscall.SIGTERM); err != nil {
				return err
			}
		}
		var t0 time.Time
		if replica, t0, err = r.start("-role", "replica", "-primary-url", s.base, "-quiet"); err != nil {
			return err
		}
		caught := false
		for time.Since(t0) < 60*time.Second {
			var rd struct {
				Ready bool `json:"ready"`
			}
			var h struct {
				Documents int `json:"documents"`
			}
			if status, err := r.cl.getJSON(replica.base+"/readyz", &rd); err == nil && status == http.StatusOK {
				if _, err := r.cl.getJSON(replica.base+"/healthz", &h); err == nil && h.Documents == wantDocs {
					caught = true
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		if !caught {
			return fmt.Errorf("replica bootstrap %d did not catch up to %d documents: %s", i, wantDocs, replica.stderr.String())
		}
		catchup = append(catchup, time.Since(t0).Seconds())
	}
	r.res.set("replica_catchup_s", median(catchup))

	// Replica reads while the primary ingests. The cycles and the
	// bootstraps above took the rest of the measuring time.
	open := r.span(0.4)
	pick := zipfPick(rand.New(rand.NewSource(r.c.seed+4)), len(r.c.rare))
	var lagMu sync.Mutex
	var lags []float64
	r.cl.onHeader = func(h http.Header) {
		if v, err := strconv.ParseFloat(h.Get("X-Xfrag-Replica-Lag"), 64); err == nil {
			lagMu.Lock()
			lags = append(lags, v)
			lagMu.Unlock()
		}
	}
	wops := make([]op, int((r.sc.warmup+open).Seconds()*primaryDocsPS)) // the primary ingests through the replica's warm-up too
	for i := range wops {
		d, err := r.c.freshDoc(r.sc, fresh+i, -1)
		if err != nil {
			return err
		}
		freshBytes += int64(len(d.XML))
		wops[i] = addOp(d)
		wops[i].due = time.Duration(float64(i) / primaryDocsPS * float64(time.Second))
	}
	var writes *window
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		writes = (&client{http: r.cl.http, conns: 1}).runOpen(s.base, wops, nil)
	}()
	r.warm(replica.base, r.c.rare, pick)
	r.canaryAudit(replica, "on the replica before the open loop")
	r.recordSearch(r.cl.runOpen(replica.base, searchSchedule(r.c.rare, pick, replicaRPS, open), nil))
	wg.Wait()
	r.cl.onHeader = nil
	r.total.merge(writes)
	r.canaryAudit(replica, "on the replica after the open loop")
	r.res.set("repl.lag_records_p50", quantile(lags, 0.5))
	r.closedSearch(replica.base, r.c.rare, pick, r.span(0.2))

	if m, err := replica.scrape(r.cl.http); err == nil {
		r.res.set("repl.bootstraps", m["repl_bootstraps_total"])
	}
	r.scrape(replica, s)
	if err := replica.stop(syscall.SIGTERM); err != nil {
		return err
	}
	r.liveBytes += freshBytes
	return r.finish(s, "-role", "primary")
}
