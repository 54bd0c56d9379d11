package engine

import (
	"container/list"
	"sync"

	"repro/internal/cost"
	"repro/internal/query"
)

// PlanOutcome classifies one PlanCache.Plan call.
type PlanOutcome int

const (
	// PlanMiss: no cached plan for the query shape; one was compiled.
	PlanMiss PlanOutcome = iota
	// PlanHit: a cached plan within the drift threshold was served.
	PlanHit
	// PlanReplan: a cached plan existed but the statistics epoch had
	// drifted past the threshold; the plan was recompiled in place.
	PlanReplan
)

// String names the outcome for metrics and explain output.
func (o PlanOutcome) String() string {
	switch o {
	case PlanMiss:
		return "miss"
	case PlanHit:
		return "hit"
	case PlanReplan:
		return "replan"
	default:
		return "unknown"
	}
}

// PlanCache is a per-shard LRU of compiled physical plans keyed on
// query shape (PlanKey). It is NOT invalidated by mutations: a plan
// steers only the Naive/SetReduction choice, which never changes answer
// sets, so a slightly stale plan is merely suboptimal. Each plan carries
// the statistics epoch it was compiled at; when the shard's epoch drifts
// past the threshold the entry is recompiled in place (PlanReplan)
// instead of the whole cache being dropped. The hit path performs zero
// allocations — a uint64 map probe, an atomic epoch load, and an LRU
// pointer move.
type PlanCache struct {
	mu sync.Mutex
	// DriftLimit is the epoch distance beyond which a cached plan is
	// recompiled; 0 means the adaptive default 16 + docs/8 (small
	// shards re-plan quickly, large shards tolerate proportionally
	// more churn before their aggregates move).
	driftLimit uint64
	cap        int
	ll         *list.List // front = most recent; values are *planEntry
	m          map[uint64]*list.Element
}

type planEntry struct {
	key  uint64
	plan *query.Plan
}

// NewPlanCache returns a plan cache holding up to capacity plans
// (minimum 16) with the given drift limit (0 = adaptive default).
func NewPlanCache(capacity int, driftLimit uint64) *PlanCache {
	if capacity < 16 {
		capacity = 16
	}
	return &PlanCache{
		driftLimit: driftLimit,
		cap:        capacity,
		ll:         list.New(),
		m:          make(map[uint64]*list.Element, capacity),
	}
}

// drift reports whether a plan's epoch stamp has drifted past the
// threshold relative to the provider's current epoch.
func (c *PlanCache) drift(p *query.Plan, epoch uint64) bool {
	limit := c.driftLimit
	if limit == 0 {
		limit = 16 + uint64(p.Docs)/8
	}
	return epoch-p.Epoch > limit
}

// Plan returns the compiled plan for q, computing it from the
// provider's statistics on a miss and recompiling it when the
// statistics epoch has drifted past the threshold.
func (c *PlanCache) Plan(q query.Query, ch cost.Chooser, prov cost.StatsProvider) (*query.Plan, PlanOutcome) {
	key := PlanKey(q)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		entry := el.Value.(*planEntry)
		if !c.drift(entry.plan, prov.StatsEpoch()) {
			return entry.plan, PlanHit
		}
		entry.plan = query.PlanQuery(q, ch, prov)
		return entry.plan, PlanReplan
	}
	p := query.PlanQuery(q, ch, prov)
	c.m[key] = c.ll.PushFront(&planEntry{key: key, plan: p})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*planEntry).key)
	}
	return p, PlanMiss
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// PlanKey fingerprints a query's shape — groups and filter clauses,
// the fields that determine a plan — as a 64-bit FNV-1a hash computed
// without allocating. A hash collision maps two shapes to one cached
// plan, which is benign: plans only steer the Naive/SetReduction
// choice, so the worst case is a suboptimal strategy, never a wrong
// answer.
func PlanKey(q query.Query) uint64 {
	const offset64 = 14695981039346656037
	h := uint64(offset64)
	groups := q.Groups
	if groups == nil {
		h = fnvByte(h, 1) // struct-literal queries: Terms stand in for Groups
		for _, t := range q.Terms {
			h = fnvString(h, t)
		}
	} else {
		for _, alts := range groups {
			for _, alt := range alts {
				h = fnvString(h, alt)
			}
			h = fnvByte(h, 2) // group separator
		}
	}
	h = fnvByte(h, 3)
	for _, f := range q.Filters {
		h = fnvString(h, f.Name)
		h = fnvByte(h, byte(f.Kind))
		for i := 0; i < 8; i++ {
			h = fnvByte(h, byte(f.Limit>>(8*i)))
		}
		if f.AntiMonotonic {
			h = fnvByte(h, 1)
		} else {
			h = fnvByte(h, 0)
		}
	}
	return h
}

const fnvPrime64 = 1099511628211

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	return h * fnvPrime64
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return fnvByte(h, 0)
}
