package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opKind separates the latency series.
type opKind int

const (
	opSearch opKind = iota
	opWrite         // POST or DELETE of a document
	numKinds
)

// op is one generated request. due is its offset from the start of an
// open-loop window; check judges the response.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte
	due    time.Duration
	check  func(status int, body []byte) error
	// doc names the document a write touches, for the watch-lag join
	// and the acknowledged-documents audit.
	doc string
	// warm marks an op of the warm-up: it is sent and checked like any
	// other, but its latency is not reported.
	warm bool
	// retry, when set, is a status that means "not now": the op is sent
	// again after a short pause and only the accepted send is recorded.
	retry int
}

func searchOp(s *shape) op {
	return op{kind: opSearch, method: http.MethodGet, path: s.path(), check: func(status int, body []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("status %d", status)
		}
		var b searchBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		return s.want.check(&b)
	}}
}

func wantStatus(want int) func(int, []byte) error {
	return func(status int, _ []byte) error {
		if status != want {
			return fmt.Errorf("status %d, want %d", status, want)
		}
		return nil
	}
}

func addOp(d doc) op {
	body, _ := json.Marshal(map[string]string{"name": d.Name, "xml": d.XML})
	return op{kind: opWrite, method: http.MethodPost, path: "/api/v1/docs", body: body, doc: d.Name, check: wantStatus(http.StatusCreated)}
}

func deleteOp(name string) op {
	return op{kind: opWrite, method: http.MethodDelete, path: "/api/v1/docs/" + name, doc: name, check: wantStatus(http.StatusOK)}
}

// client sends ops over a fixed number of keep-alive connections.
type client struct {
	http  *http.Client
	conns int
	// onHeader, when set, sees every response's headers.
	onHeader func(http.Header)
}

func newClient(conns int) *client {
	return &client{conns: conns, http: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: conns + 8, MaxIdleConnsPerHost: conns + 8},
	}}
}

// do sends one op and returns the status and the whole body; the
// latency clock of the caller stops when the body has been read.
func (c *client) do(base string, o *op) (int, []byte, error) {
	var rd io.Reader
	if o.body != nil {
		rd = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, base+o.path, rd)
	if err != nil {
		return 0, nil, err
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if c.onHeader != nil {
		c.onHeader(resp.Header)
	}
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// getJSON is the helper for the few control-plane reads.
func (c *client) getJSON(url string, into any) (int, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if into != nil && resp.StatusCode < 300 {
		err = json.Unmarshal(body, into)
	}
	return resp.StatusCode, err
}

// window is what one measuring window recorded.
type window struct {
	lat       [numKinds][]float64 // ms, successful ops only
	attempted int
	failed    int
	firstErr  error
	late      []float64 // ms the generator woke after an op was due
	elapsed   time.Duration
	acked     []string // documents whose add was acknowledged
	ackedDel  []string // documents whose delete was acknowledged
	mu        sync.Mutex
}

func (w *window) record(o *op, ms float64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.attempted++
	if err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = fmt.Errorf("%s %s: %w", o.method, o.path, err)
		}
		return
	}
	if !o.warm {
		w.lat[o.kind] = append(w.lat[o.kind], ms)
	}
	if o.doc != "" {
		if o.method == http.MethodDelete {
			w.ackedDel = append(w.ackedDel, o.doc)
		} else {
			w.acked = append(w.acked, o.doc)
		}
	}
}

// merge folds another window's counts and series into w.
func (w *window) merge(o *window) {
	for k := range w.lat {
		w.lat[k] = append(w.lat[k], o.lat[k]...)
	}
	w.attempted += o.attempted
	w.failed += o.failed
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
	w.late = append(w.late, o.late...)
	w.acked = append(w.acked, o.acked...)
	w.ackedDel = append(w.ackedDel, o.ackedDel...)
}

// runOpen sends ops on their schedule. Workers share one cursor, so a
// free connection always takes the next due op, and every latency is
// timed from the op's due instant: a stall delays the ops behind it and
// that delay is counted. onSend, when set, learns each op's due instant
// before the request leaves.
func (c *client) runOpen(base string, ops []op, onSend func(o *op, due time.Time)) *window {
	return c.runList(base, ops, true, onSend)
}

// runClosedList sends a fixed list as a closed loop: every connection
// takes the next op as soon as its previous answer is in, and each
// latency is timed from the send.
func (c *client) runClosedList(base string, ops []op) *window {
	return c.runList(base, ops, false, nil)
}

func (c *client) runList(base string, ops []op, open bool, onSend func(o *op, due time.Time)) *window {
	w := &window{}
	runtime.GC() // now, not in the middle of the window
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for i := 0; i < c.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				from := time.Now()
				if open {
					from = start.Add(o.due)
					if d := time.Until(from); d > 0 {
						sleep(d)
						late := float64(time.Since(from)) / 1e6
						w.mu.Lock()
						w.late = append(w.late, late)
						w.mu.Unlock()
					}
				}
				if onSend != nil {
					onSend(o, from)
				}
				c.send(base, o, from, w)
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	return w
}

// send sends o, judges the answer and records the latency since from.
// A "not now" status (op.retry) is sent again after a short pause and
// timed from the send that was accepted.
func (c *client) send(base string, o *op, from time.Time, w *window) {
	status, body, err := c.do(base, o)
	for err == nil && o.retry != 0 && status == o.retry {
		sleep(time.Millisecond)
		from = time.Now()
		status, body, err = c.do(base, o)
	}
	ms := float64(time.Since(from)) / 1e6
	if err == nil {
		err = o.check(status, body)
	}
	w.record(o, ms, err)
}

// sleep blocks for d in nanosleep(2). time.Sleep is not used for the
// schedule: an idle Go runtime parks in epoll_wait, whose timeout is in
// whole milliseconds, so every op would leave up to 1 ms late and that
// millisecond would be counted as latency.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// runClosed keeps every connection busy for d: each sends its next op
// as soon as the previous answer is in. gen must be safe to call from
// several goroutines with distinct i.
func (c *client) runClosed(base string, d time.Duration, gen func(i int) op) *window {
	w := &window{}
	start := time.Now()
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for i := 0; i < c.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				o := gen(int(next.Add(1)))
				c.send(base, &o, time.Now(), w)
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	return w
}

// quantile is the q-quantile of xs by linear interpolation; xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// overLimit is the share of attempted ops that missed limitMS: the
// slow successes plus every failure.
func overLimit(lat []float64, failed int, limitMS float64) float64 {
	n := failed
	for _, v := range lat {
		if v > limitMS {
			n++
		}
	}
	if len(lat)+failed == 0 {
		return 0
	}
	return float64(n) / float64(len(lat)+failed)
}
