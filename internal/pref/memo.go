package pref

import (
	"slices"
	"sync"

	"repro/internal/roadnet"
)

// Memo remembers, per ground-truth path, what Learn's searches found
// for it, so a learner shown the same path again answers them without
// searching (package doc, "Search elimination": the memo rule). Every
// value it holds is a function of the road network and the path, never
// of the sample around it, so a recalled value is the computed one, bit
// for bit.
//
// A Memo serves the learners over one road network with one Slaves
// list (NewMemo's); Learn ignores it on any other learner. It is safe
// for concurrent use by several learners, and it keeps the paths it is
// given as keys: a path learned from must not be modified afterwards.
// Nothing in it is persisted.
type Memo struct {
	g      *roadnet.Graph
	slaves []SlaveFeature
	cap    int // memoCap; tests lower it

	mu    sync.Mutex
	index map[uint64]*memoEntry // by hashPath of the entry's path
	slab  []memoEntry           // the chunk new entries go into
	n     int                   // entries since the last reset
}

// memoCap is the most entries a Memo holds. A Learn that finds it full
// clears it first; entries other learners hold stay valid, since a reset
// starts a new slab rather than reusing the old one. A full memo
// measures 1.1 MB: 88 bytes an entry, about 45 more of index.
const memoCap = 8192

// memoChunk is how many entries one slab allocation holds.
const memoChunk = 64

// memoSims is how many restricted-search similarities an entry holds.
// On the benchmark city's write path one truth in eight ever needs one,
// and a fourth would answer no Dijkstra search the third does not; past
// this the search simply runs.
const memoSims = 3

// memoEntry is what the memo holds for one ground-truth path. path,
// sim0 and forbid are written before the entry is published and never
// after; the restricted similarities only under Memo.mu.
type memoEntry struct {
	path   roadnet.Path
	sim0   [roadnet.NumCostWeights]float64
	sims   [memoSims]float64
	forbid [roadnet.NumCostWeights]uint16
	keys   [memoSims]uint8 // restrictedKey of sims[i]
	n      uint8
}

// NewMemo returns an empty memo for learners over g with the given
// candidate slaves (a learner's Slaves).
func NewMemo(g *roadnet.Graph, slaves []SlaveFeature) *Memo {
	return &Memo{g: g, slaves: slices.Clone(slaves), cap: memoCap}
}

// serves reports whether m was made for l's road network and Slaves.
func (m *Memo) serves(l *Learner) bool {
	return m != nil && m.g == l.g && slices.Equal(m.slaves, l.Slaves)
}

// resetIfFull clears a full memo: what Learn does before its sample.
func (m *Memo) resetIfFull() {
	m.mu.Lock()
	if m.n >= m.cap {
		clear(m.index)
		m.slab, m.n = nil, 0
	}
	m.mu.Unlock()
}

// find returns p's entry, or nil. A hash shared with another path is
// a miss: the exact comparison is what keys the memo.
func (m *Memo) find(h uint64, p roadnet.Path) *memoEntry {
	m.mu.Lock()
	e := m.index[h]
	m.mu.Unlock()
	if e == nil || !slices.Equal(e.path, p) {
		return nil
	}
	return e
}

// add publishes p's master-only values and returns the entry now
// holding them: a concurrent learner's if it came first, nil if the
// memo is full or p's hash belongs to another path.
func (m *Memo) add(h uint64, p roadnet.Path, sim0 [roadnet.NumCostWeights]float64, forbid [roadnet.NumCostWeights]uint16) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.index[h]; ok {
		if slices.Equal(e.path, p) {
			return e
		}
		return nil
	}
	if m.n >= m.cap {
		return nil
	}
	if m.index == nil {
		m.index = make(map[uint64]*memoEntry)
	}
	if len(m.slab) == cap(m.slab) {
		m.slab = make([]memoEntry, 0, memoChunk)
	}
	m.slab = append(m.slab, memoEntry{path: p, sim0: sim0, forbid: forbid})
	e := &m.slab[len(m.slab)-1]
	m.index[h] = e
	m.n++
	return e
}

// restricted returns the similarity e holds for the restricted search
// key names; a truth without an entry (e nil) holds none.
func (m *Memo) restricted(e *memoEntry, key uint8) (float64, bool) {
	if e == nil {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if i := slices.Index(e.keys[:e.n], key); i >= 0 {
		return e.sims[i], true
	}
	return 0, false
}

// remember stores the similarity the restricted search key names found,
// if there is an entry with room that does not hold it yet.
func (m *Memo) remember(e *memoEntry, key uint8, sim float64) {
	if e == nil {
		return
	}
	m.mu.Lock()
	if int(e.n) < memoSims && !slices.Contains(e.keys[:e.n], key) {
		e.keys[e.n], e.sims[e.n] = key, sim
		e.n++
	}
	m.mu.Unlock()
}

// restrictedKey names the ⟨master, Slaves[j]⟩ search within an entry.
func restrictedKey(m roadnet.Weight, j int) uint8 { return uint8(m)<<6 | uint8(j) }

// hashPath is FNV-1a over a path's vertex IDs.
func hashPath(p roadnet.Path) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range p {
		h = (h ^ uint64(uint32(v))) * 1099511628211
	}
	return h
}
