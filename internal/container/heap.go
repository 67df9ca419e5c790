package container

// IndexedMinHeap is a binary min-heap over items identified by dense
// integer IDs in [0, capacity). It supports DecreaseKey-style updates via
// Update. The zero value is not usable; call NewIndexedMinHeap.
type IndexedMinHeap struct {
	ids  []int32   // heap order -> item id
	pos  []int32   // item id -> heap position, -1 if absent
	prio []float64 // item id -> priority
}

// NewIndexedMinHeap returns a heap able to hold items with IDs in
// [0, capacity).
func NewIndexedMinHeap(capacity int) *IndexedMinHeap {
	h := &IndexedMinHeap{
		ids:  make([]int32, 0, capacity),
		pos:  make([]int32, capacity),
		prio: make([]float64, capacity),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len returns the number of queued items.
func (h *IndexedMinHeap) Len() int { return len(h.ids) }

// Contains reports whether the item is currently queued.
func (h *IndexedMinHeap) Contains(id int) bool { return h.pos[id] >= 0 }

// Push inserts the item with the given priority. If the item is already
// queued, Push behaves like Update.
func (h *IndexedMinHeap) Push(id int, priority float64) {
	if h.pos[id] >= 0 {
		h.Update(id, priority)
		return
	}
	h.prio[id] = priority
	h.pos[id] = int32(len(h.ids))
	h.ids = append(h.ids, int32(id))
	h.up(len(h.ids) - 1)
}

// Update changes the priority of a queued item, restoring heap order.
func (h *IndexedMinHeap) Update(id int, priority float64) {
	i := h.pos[id]
	old := h.prio[id]
	h.prio[id] = priority
	if priority < old {
		h.up(int(i))
	} else if priority > old {
		h.down(int(i))
	}
}

// Pop removes and returns the item with the smallest priority.
// It panics if the heap is empty.
func (h *IndexedMinHeap) Pop() (id int, priority float64) {
	top := h.ids[0]
	h.swap(0, len(h.ids)-1)
	h.ids = h.ids[:len(h.ids)-1]
	h.pos[top] = -1
	if len(h.ids) > 0 {
		h.down(0)
	}
	return int(top), h.prio[top]
}

// Remove deletes an arbitrary queued item.
func (h *IndexedMinHeap) Remove(id int) {
	i := int(h.pos[id])
	last := len(h.ids) - 1
	h.swap(i, last)
	h.ids = h.ids[:last]
	h.pos[id] = -1
	if i < last {
		h.down(i)
		h.up(i)
	}
}

// Reset empties the heap, keeping its capacity.
func (h *IndexedMinHeap) Reset() {
	for _, id := range h.ids {
		h.pos[id] = -1
	}
	h.ids = h.ids[:0]
}

func (h *IndexedMinHeap) less(i, j int) bool {
	return h.prio[h.ids[i]] < h.prio[h.ids[j]]
}

func (h *IndexedMinHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.pos[h.ids[i]] = int32(i)
	h.pos[h.ids[j]] = int32(j)
}

func (h *IndexedMinHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *IndexedMinHeap) down(i int) {
	n := len(h.ids)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// IndexedMaxHeap is a binary max-heap over items identified by dense
// integer IDs. Algorithm 1 of the paper extracts the most popular vertex
// on every iteration, so the clustering package uses this heap.
type IndexedMaxHeap struct {
	min IndexedMinHeap
}

// NewIndexedMaxHeap returns a max-heap able to hold items with IDs in
// [0, capacity).
func NewIndexedMaxHeap(capacity int) *IndexedMaxHeap {
	return &IndexedMaxHeap{min: *NewIndexedMinHeap(capacity)}
}

// Len returns the number of queued items.
func (h *IndexedMaxHeap) Len() int { return h.min.Len() }

// Contains reports whether the item is currently queued.
func (h *IndexedMaxHeap) Contains(id int) bool { return h.min.Contains(id) }

// Push inserts or updates the item with the given priority.
func (h *IndexedMaxHeap) Push(id int, priority float64) { h.min.Push(id, -priority) }

// PopMax removes and returns the item with the largest priority.
func (h *IndexedMaxHeap) PopMax() (id int, priority float64) {
	id, p := h.min.Pop()
	return id, -p
}

// Remove deletes an arbitrary queued item.
func (h *IndexedMaxHeap) Remove(id int) { h.min.Remove(id) }
