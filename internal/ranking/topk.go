package ranking

import "slices"

// TopK is a bounded selection: it keeps the k best values offered
// under better, a strict total order, in a binary heap whose root is
// the worst value kept. Every cut of the read path — a document's
// answers, a shard's hits, the store's merge — goes through it, so
// each keeps k values instead of sorting all of them. k <= 0 keeps
// every value.
type TopK[T any] struct {
	k      int
	better func(a, b T) bool
	heap   []T // a heap only once it is full (k > 0)
}

// NewTopK returns a selection of the k best values; n is the number of
// values the caller expects to offer, used to size the buffer once.
func NewTopK[T any](k, n int, better func(a, b T) bool) TopK[T] {
	if k > 0 && n > k {
		n = k
	}
	return TopK[T]{k: k, better: better, heap: make([]T, 0, max(n, 0))}
}

// Offer considers v: kept while fewer than k values are, else swapped
// in for the worst kept value when it is better.
func (t *TopK[T]) Offer(v T) {
	switch {
	case t.k <= 0 || len(t.heap) < t.k-1:
		t.heap = append(t.heap, v)
	case len(t.heap) == t.k-1:
		t.heap = append(t.heap, v)
		for i := len(t.heap)/2 - 1; i >= 0; i-- {
			t.down(i)
		}
	case t.better(v, t.heap[0]):
		t.heap[0] = v
		t.down(0)
	}
}

// admits reports whether Offer(v) would keep v.
func (t *TopK[T]) admits(v T) bool {
	return t.k <= 0 || len(t.heap) < t.k || t.better(v, t.heap[0])
}

// down restores the heap below i: a parent is never better than its
// children, so the root is the worst value kept.
func (t *TopK[T]) down(i int) {
	h := t.heap
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && t.better(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && t.better(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// Sorted returns the kept values, best first. It reuses the selection's
// buffer, so the selection must not be offered more values afterwards.
func (t *TopK[T]) Sorted() []T {
	slices.SortFunc(t.heap, func(a, b T) int {
		switch {
		case t.better(a, b):
			return -1
		case t.better(b, a):
			return 1
		}
		return 0
	})
	return t.heap
}
