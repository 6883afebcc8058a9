// Package xheap provides the engine's selection trees. Every kernel —
// selection passes, replacement selection, the sorts' multiway merges
// and a resident intake's drain — runs on Keyed (keyed.go), a tree of
// losers over a record slab; the closure-compared generic binary Heap
// below has no engine caller left and stays for the benchmark ladder's
// xheap.replace_ns rung, which compiles against it.
package xheap

// Heap is a binary heap ordered by the provided less function: a min-heap
// when less is "a < b", a max-heap when inverted.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// New returns an empty heap with the given order and capacity hint.
func New[T any](less func(a, b T) bool, capHint int) *Heap[T] {
	return &Heap[T]{items: make([]T, 0, capHint), less: less}
}

// Heapify builds a heap in place from items, taking ownership of the slice.
func Heapify[T any](items []T, less func(a, b T) bool) *Heap[T] {
	h := &Heap[T]{items: items, less: less}
	for i := len(items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// Len reports the number of elements.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push adds x.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Peek returns the root without removing it. It panics on an empty heap.
func (h *Heap[T]) Peek() T {
	if len(h.items) == 0 {
		panic("xheap: Peek on empty heap")
	}
	return h.items[0]
}

// Pop removes and returns the root. It panics on an empty heap.
func (h *Heap[T]) Pop() T {
	if len(h.items) == 0 {
		panic("xheap: Pop on empty heap")
	}
	root := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero // release references for GC
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return root
}

// ReplaceRoot swaps the root for x and restores heap order; equivalent to
// Pop-then-Push but with a single sift. It panics on an empty heap.
func (h *Heap[T]) ReplaceRoot(x T) T {
	if len(h.items) == 0 {
		panic("xheap: ReplaceRoot on empty heap")
	}
	root := h.items[0]
	h.items[0] = x
	h.down(0)
	return root
}

// Drain removes all elements in heap order and returns them ascending by
// the heap's order.
func (h *Heap[T]) Drain() []T {
	out := make([]T, 0, len(h.items))
	for h.Len() > 0 {
		out = append(out, h.Pop())
	}
	return out
}

// Reset empties the heap, keeping capacity.
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			smallest = right
		}
		if !h.less(h.items[smallest], h.items[i]) {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
