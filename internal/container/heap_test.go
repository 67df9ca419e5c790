package container

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMinHeapBasic(t *testing.T) {
	h := NewIndexedMinHeap(10)
	if h.Len() != 0 {
		t.Fatal("new heap not empty")
	}
	h.Push(3, 5.0)
	h.Push(7, 1.0)
	h.Push(1, 3.0)
	if h.Len() != 3 {
		t.Fatalf("len = %d", h.Len())
	}
	if !h.Contains(7) || h.Contains(2) {
		t.Error("Contains wrong")
	}
	id, p := h.Pop()
	if id != 7 || p != 1.0 {
		t.Errorf("pop = %d,%v", id, p)
	}
	id, p = h.Pop()
	if id != 1 || p != 3.0 {
		t.Errorf("pop = %d,%v", id, p)
	}
	id, p = h.Pop()
	if id != 3 || p != 5.0 {
		t.Errorf("pop = %d,%v", id, p)
	}
}

func TestMinHeapDecreaseKey(t *testing.T) {
	h := NewIndexedMinHeap(5)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(2, 30)
	h.Update(2, 5) // decrease
	if id, p := h.Pop(); id != 2 || p != 5 {
		t.Errorf("after decrease, pop = %d,%v", id, p)
	}
	h.Update(1, 100) // increase
	if id, _ := h.Pop(); id != 0 {
		t.Errorf("after increase, pop = %d", id)
	}
}

func TestMinHeapPushExistingActsAsUpdate(t *testing.T) {
	h := NewIndexedMinHeap(3)
	h.Push(0, 10)
	h.Push(0, 2)
	if h.Len() != 1 {
		t.Fatalf("duplicate push grew heap: %d", h.Len())
	}
	if _, p := h.Pop(); p != 2 {
		t.Errorf("priority = %v want 2", p)
	}
}

func TestMinHeapRemove(t *testing.T) {
	h := NewIndexedMinHeap(6)
	for i := 0; i < 6; i++ {
		h.Push(i, float64(10-i))
	}
	h.Remove(5) // currently minimum (priority 5)
	id, p := h.Pop()
	if id != 4 || p != 6 {
		t.Errorf("pop after remove = %d,%v", id, p)
	}
	if h.Contains(5) {
		t.Error("removed item still present")
	}
}

func TestMinHeapReset(t *testing.T) {
	h := NewIndexedMinHeap(4)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Reset()
	if h.Len() != 0 || h.Contains(0) || h.Contains(1) {
		t.Error("reset did not clear")
	}
	h.Push(1, 9)
	if id, p := h.Pop(); id != 1 || p != 9 {
		t.Error("heap unusable after reset")
	}
}

// TestMinHeapSortsLikeSort is the heap-order property test: popping
// everything yields ascending priorities.
func TestMinHeapSortsLikeSort(t *testing.T) {
	f := func(prios []float64) bool {
		if len(prios) > 256 {
			prios = prios[:256]
		}
		for i, p := range prios {
			if p != p { // NaN breaks ordering by definition
				prios[i] = 0
			}
		}
		h := NewIndexedMinHeap(len(prios))
		for i, p := range prios {
			h.Push(i, p)
		}
		want := append([]float64(nil), prios...)
		sort.Float64s(want)
		for _, w := range want {
			_, p := h.Pop()
			if p != w {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMinHeapRandomOps exercises mixed pushes, updates, removals and
// pops against a reference map implementation.
func TestMinHeapRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200
	h := NewIndexedMinHeap(n)
	ref := make(map[int]float64)
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(4); {
		case op == 0 || len(ref) == 0: // push
			id := rng.Intn(n)
			p := rng.Float64() * 100
			h.Push(id, p)
			ref[id] = p
		case op == 1: // update existing
			id := anyKey(ref, rng)
			p := rng.Float64() * 100
			h.Update(id, p)
			ref[id] = p
		case op == 2: // remove
			id := anyKey(ref, rng)
			h.Remove(id)
			delete(ref, id)
		default: // pop-min
			id, p := h.Pop()
			want, ok := ref[id]
			if !ok || want != p {
				t.Fatalf("step %d: popped (%d,%v), ref %v,%v", step, id, p, want, ok)
			}
			for _, v := range ref {
				if v < p-1e-12 {
					t.Fatalf("step %d: popped %v but smaller %v exists", step, p, v)
				}
			}
			delete(ref, id)
		}
		if h.Len() != len(ref) {
			t.Fatalf("step %d: len %d != ref %d", step, h.Len(), len(ref))
		}
	}
}

func anyKey(m map[int]float64, rng *rand.Rand) int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys[rng.Intn(len(keys))]
}

func TestMaxHeap(t *testing.T) {
	h := NewIndexedMaxHeap(8)
	h.Push(0, 5)
	h.Push(1, 50)
	h.Push(2, 20)
	id, p := h.PopMax()
	if id != 1 || p != 50 {
		t.Errorf("popmax = %d,%v", id, p)
	}
	h.Push(0, 99)
	if id, p = h.PopMax(); id != 0 || p != 99 {
		t.Errorf("popmax after re-push = %d,%v", id, p)
	}
	if !h.Contains(2) {
		t.Error("item 2 missing")
	}
	h.Remove(2)
	if h.Len() != 0 || h.Contains(2) {
		t.Error("not empty after removals")
	}
}
