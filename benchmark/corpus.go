package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/cost"
	"repro/internal/docgen"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// Corpus constants (see README.md, "Corpus"). They are fixed so that
// the parent commit and a change always see the same documents for the
// same seed; retune them only in a change of the benchmark itself.
const (
	rarePairs     = 100 // each pair lands in 1/100 of the documents
	rareWitnesses = 2
	commonPairs   = 64 // each pair lands in 1/64 of the documents
	commonWitness = 14
	watchedPairs  = 4 // rare pairs 0..3 carry the standing queries

	rareFilter   = "size<=6"
	commonFilter = "size<=2"
	searchLimit  = 10

	canaryQuery  = "xquery optimization"
	canaryFilter = "size<=3"
)

// scale sizes the corpus and the fixed-count phases. Rates never scale:
// they are constants of the workload definitions.
type scale struct {
	name           string
	docs           int
	setups         int // full set-ups per run; setup_s is their median
	restarts       int // timed restarts at the end of a run that has no restart cycles
	restartCycles  int
	replicaBoots   int
	restartIngests int // documents ingested before each restart
	warmup         time.Duration
}

var scales = map[string]scale{
	"full":  {name: "full", docs: 2000, setups: 3, restarts: 2, restartCycles: 5, replicaBoots: 3, restartIngests: 50, warmup: 1500 * time.Millisecond},
	"smoke": {name: "smoke", docs: 200, setups: 1, restarts: 1, restartCycles: 2, replicaBoots: 1, restartIngests: 10, warmup: 300 * time.Millisecond},
}

// doc is one generated document as the server receives it.
type doc struct {
	Name string
	XML  string
}

// shape is one query shape: the request parameters plus what the
// oracle expects back.
type shape struct {
	Keywords string
	Filter   string
	// want is filled by the oracle at set-up.
	want expectation
}

func (s *shape) path() string {
	return "/api/v1/search?q=" + url.QueryEscape(s.Keywords) + "&filter=" + url.QueryEscape(s.Filter) + fmt.Sprintf("&limit=%d", searchLimit)
}

// corpus is everything generated from the seed.
type corpus struct {
	seed      int64
	docs      []doc // C<n> plus the Figure 1 canary as the last entry
	userBytes int64
	nodes     int
	rare      []*shape // Zipf rank order: rare[0] is the most requested
	common    []*shape
	canary    *shape
	parsed    []*xmltree.Document // the same documents, for the oracle and the replay
}

func rareTerms(p int) string   { return fmt.Sprintf("rarea%03d rareb%03d", p, p) }
func commonTerms(p int) string { return fmt.Sprintf("comma%02d commb%02d", p, p) }

// genDoc builds synthetic document number i. plantRare < 0 plants no
// rare pair; plantCommon likewise.
func genDoc(seed int64, i int, name string, plantRare, plantCommon int) (*xmltree.Document, error) {
	plant := map[string]int{}
	if plantRare >= 0 {
		for _, t := range strings.Fields(rareTerms(plantRare)) {
			plant[t] = rareWitnesses
		}
	}
	if plantCommon >= 0 {
		for _, t := range strings.Fields(commonTerms(plantCommon)) {
			plant[t] = commonWitness
		}
	}
	return docgen.Generate(docgen.Config{
		Name: name, Seed: seed*1_000_003 + int64(i),
		Sections: 3, MeanFanout: 3, Depth: 2, VocabSize: 3000, ZipfS: 1.15, ParLength: 25,
		Plant: plant,
	})
}

func newCorpus(seed int64, sc scale) (*corpus, error) {
	c := &corpus{seed: seed}
	gen := make([]*xmltree.Document, sc.docs)
	errs := make([]error, sc.docs)
	parallel(sc.docs, func(i int) {
		gen[i], errs[i] = genDoc(seed, i, fmt.Sprintf("d%05d.xml", i), i%rarePairs, i%commonPairs)
	})
	for i, d := range gen {
		if errs[i] != nil {
			return nil, errs[i]
		}
		c.add(d)
	}
	c.add(docgen.FigureOne())
	// The seed permutes which pair is popular, so no pair is special.
	rng := rand.New(rand.NewSource(seed))
	for _, p := range rng.Perm(rarePairs) {
		c.rare = append(c.rare, &shape{Keywords: rareTerms(p), Filter: rareFilter})
	}
	for _, p := range rng.Perm(commonPairs) {
		c.common = append(c.common, &shape{Keywords: commonTerms(p), Filter: commonFilter})
	}
	c.canary = &shape{Keywords: canaryQuery, Filter: canaryFilter}
	return c, nil
}

// parallel runs fn(0..n-1) on every CPU. Generation and the oracle are
// outside every timed phase; this only shortens the run.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func (c *corpus) add(d *xmltree.Document) {
	x := d.XMLString()
	c.docs = append(c.docs, doc{Name: d.Name(), XML: x})
	c.parsed = append(c.parsed, d)
	c.userBytes += int64(len(x))
	c.nodes += d.Len()
}

// freshDoc is document number j of the write stream, numbered after
// the corpus. pair >= 0 plants that watched pair, so a standing query
// produces a delta for the document.
func (c *corpus) freshDoc(sc scale, j, pair int) (doc, error) {
	d, err := genDoc(c.seed, sc.docs+j, fmt.Sprintf("w%06d.xml", j), pair, -1)
	if err != nil {
		return doc{}, err
	}
	return doc{Name: d.Name(), XML: d.XMLString()}, nil
}

// hitKey identifies one answer fragment.
type hitKey struct {
	doc   string
	nodes string
}

func nodesKey(ids []int32) string {
	var b []byte
	for _, id := range ids {
		b = strconv.AppendInt(append(b, ','), int64(id), 10)
	}
	return string(b)
}

// expectation is the oracle's answer for one shape: the total, every
// fragment's score, and the scores of the first page in rank order.
// Comparing scores position by position and fragments by membership
// keeps the check exact while tolerating the order of equal scores.
type expectation struct {
	total  int
	scores map[hitKey]float64
	top    []float64
}

// oracle computes every shape's expectation on the tree path: one
// unsharded collection, push-down forced, no term index, no plan
// cache, no standing view.
func (c *corpus) oracle() error {
	coll := collection.New()
	for _, d := range c.parsed {
		if err := coll.Add(d); err != nil {
			return err
		}
	}
	shapes := append(append([]*shape{c.canary}, c.rare...), c.common...)
	errs := make([]error, len(shapes))
	parallel(len(shapes), func(i int) {
		s := shapes[i]
		q, err := query.Parse(s.Keywords, s.Filter)
		if err != nil {
			errs[i] = err
			return
		}
		res, err := coll.RunContext(context.Background(), q, query.Options{Strategy: cost.PushDown})
		if err == nil && len(res.Errors) > 0 {
			err = fmt.Errorf("oracle: %q: %d documents failed", s.Keywords, len(res.Errors))
		}
		if err != nil {
			errs[i] = err
			return
		}
		s.want = expectationOf(res.Hits)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if c.canary.want.total != 4 {
		return fmt.Errorf("oracle: Figure 1 canary has %d fragments, Table 1 has 4", c.canary.want.total)
	}
	return nil
}

func expectationOf(hits []collection.Hit) expectation {
	scores := make(map[hitKey]float64, len(hits))
	for _, h := range hits {
		ids := h.Fragment.IDs()
		nodes := make([]int32, len(ids))
		for i, id := range ids {
			nodes[i] = int32(id)
		}
		scores[hitKey{h.Document, nodesKey(nodes)}] = h.Score
	}
	return expectationOfScores(scores)
}

func expectationOfScores(scores map[hitKey]float64) expectation {
	e := expectation{total: len(scores), scores: scores}
	for _, v := range scores {
		e.top = append(e.top, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(e.top)))
	if len(e.top) > searchLimit {
		e.top = e.top[:searchLimit]
	}
	return e
}

// searchBody is the part of the search response the oracle checks.
type searchBody struct {
	Total int `json:"total"`
	Hits  []struct {
		Document string  `json:"document"`
		Nodes    []int32 `json:"nodes"`
		Score    float64 `json:"score"`
	} `json:"hits"`
	Errors map[string]string `json:"errors"`
}

// check compares one response with the expectation.
func (e *expectation) check(b *searchBody) error {
	if len(b.Errors) > 0 {
		return fmt.Errorf("%d documents reported errors", len(b.Errors))
	}
	if b.Total != e.total {
		return fmt.Errorf("total %d, want %d", b.Total, e.total)
	}
	if len(b.Hits) != len(e.top) {
		return fmt.Errorf("%d hits, want %d", len(b.Hits), len(e.top))
	}
	for i, h := range b.Hits {
		want, ok := e.scores[hitKey{h.Document, nodesKey(h.Nodes)}]
		if !ok {
			return fmt.Errorf("hit %d (%s %v) is not an answer", i, h.Document, h.Nodes)
		}
		if h.Score != want || h.Score != e.top[i] {
			return fmt.Errorf("hit %d score %v, want %v at this rank", i, h.Score, e.top[i])
		}
	}
	return nil
}

// zipfPick draws shape indexes with a Zipf skew (s = 1.1) over n.
func zipfPick(rng *rand.Rand, n int) func() int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}
