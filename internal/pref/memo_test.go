package pref_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ch"
	"repro/internal/pref"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/worldgen"
)

// learnChain is the write path's access pattern over a city: every
// T-edge path set learned from each of its growing prefixes, as ingests
// grow it, so consecutive evenly thinned samples overlap.
func learnChain(w *worldgen.World) [][]roadnet.Path {
	var chain [][]roadnet.Path
	for _, ps := range tEdgePathSets(w) {
		for k := 1; k <= len(ps); k++ {
			chain = append(chain, ps[:k])
		}
	}
	return chain
}

// learnLikeFresh runs one Learn on memoized and on fresh, a learner
// without a memo, and reports how they differ, "" when they do not: the
// same Result bit for bit, and a ledger in which every search the memo
// answered is one fresh ran — possibly on the hierarchy — and nothing
// else moves.
func learnLikeFresh(memoized, fresh *pref.Learner, paths []roadnet.Path) string {
	m0, f0 := memoized.Searches, fresh.Searches
	got, want := memoized.Learn(paths), fresh.Learn(paths)
	if !sameResult(got, want) {
		return fmt.Sprintf("Learn = %+v, without the memo %+v", got, want)
	}
	m, f := memoized.Searches, fresh.Searches
	run, memo, hier := m.Run-m0.Run, m.Memo-m0.Memo, m.Hierarchy-m0.Hierarchy
	if f.Memo != 0 || run+memo != f.Run-f0.Run || m.Reused-m0.Reused != f.Reused-f0.Reused ||
		m.Bounded-m0.Bounded != f.Bounded-f0.Bounded || hier > f.Hierarchy-f0.Hierarchy {
		return fmt.Sprintf("ledger moved by %+v, without the memo by %+v", m, f)
	}
	return ""
}

// TestLearnMemoMatchesFresh holds a learner answering from a memo to
// one without, bit for bit, over learnChain on generated cities — on
// Dijkstra, with the master searches on a CCH fork and with every
// search on a pass fork — and once more with the memo's cap lowered so
// that Learn clears it again and again.
// LearnMulti on the warm memo matches too.
func TestLearnMemoMatchesFresh(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if raceEnabled {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("bench-%d", seed), func(t *testing.T) {
			t.Parallel()
			w := worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, seed))
			chain := learnChain(w)
			sets := tEdgePathSets(w)
			che := route.BuildCHEngine(w.Road, roadnet.TT, ch.Config{})
			for _, c := range []struct {
				name string
				eng  func() route.PathEngine
				cap  int
			}{
				{"dijkstra", func() route.PathEngine { return route.NewEngine(w.Road) }, 0},
				{"cch", func() route.PathEngine { return che.Fork() }, 0},
				{"pass", func() route.PathEngine { return che.PassFork().Fork() }, 0},
				{"cch-cap", func() route.PathEngine { return che.Fork() }, 7},
			} {
				memoized, fresh := pref.NewLearnerOn(c.eng()), pref.NewLearnerOn(c.eng())
				memoized.Memo = pref.NewMemo(w.Road, memoized.Slaves)
				if c.cap > 0 {
					pref.SetMemoCap(memoized.Memo, c.cap)
				}
				resets, held := 0, 0
				for i, ps := range chain {
					if d := learnLikeFresh(memoized, fresh, ps); d != "" {
						t.Fatalf("%s, Learn %d: %s", c.name, i, d)
					}
					n := pref.MemoLen(memoized.Memo)
					if c.cap > 0 && n > c.cap {
						t.Fatalf("%s, Learn %d: the memo holds %d entries, cap %d", c.name, i, n, c.cap)
					}
					if n < held {
						resets++
					}
					held = n
				}
				if c.cap > 0 && resets == 0 {
					t.Fatalf("%s: the memo never filled over %d Learns", c.name, len(chain))
				}
				for i, ps := range sets {
					if got, want := memoized.LearnMulti(ps, 3, 0.2), fresh.LearnMulti(ps, 3, 0.2); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, T-edge %d: LearnMulti = %+v, without the memo %+v", c.name, i, got, want)
					}
				}
				s := memoized.Searches
				if s.Memo == 0 {
					t.Fatalf("%s: the memo answered none of %d searches", c.name, s.Total())
				}
				t.Logf("%s: %d Learns, %d resets; of %d searches %d run, %d from the memo, %d reused, %d bounded",
					c.name, len(chain), resets, s.Total(), s.Run, s.Memo, s.Reused, s.Bounded)
			}
		})
	}
}

// TestLearnMemoIgnoredByOtherLearners: a memo made for other slaves or
// another road network answers nothing, and the learner learns as if
// it had none.
func TestLearnMemoIgnoredByOtherLearners(t *testing.T) {
	w := worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, 1))
	other := worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, 2))
	sets := tEdgePathSets(w)
	for name, memo := range map[string]*pref.Memo{
		"other slaves": pref.NewMemo(w.Road, pref.CandidateSlaves()[1:]),
		"other road":   pref.NewMemo(other.Road, pref.CandidateSlaves()),
	} {
		memoized, fresh := pref.NewLearner(w.Road), pref.NewLearner(w.Road)
		memoized.Memo = memo
		for i, ps := range append(sets, sets...) {
			if d := learnLikeFresh(memoized, fresh, ps); d != "" {
				t.Fatalf("%s, Learn %d: %s", name, i, d)
			}
		}
		if memoized.Searches.Memo != 0 || pref.MemoLen(memo) != 0 {
			t.Fatalf("%s: a learner the memo was not made for used it", name)
		}
	}
}

// TestLearnMemoConcurrent runs two learners sharing one memo at once,
// over learnChain in opposite orders, and holds each Learn to a
// memo-less learner's result. Run it under -race.
func TestLearnMemoConcurrent(t *testing.T) {
	w := worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, 1))
	chain := learnChain(w)
	che := route.BuildCHEngine(w.Road, roadnet.TT, ch.Config{})
	fresh := pref.NewLearnerOn(che.Fork())
	want := make([]pref.Result, len(chain))
	for i, ps := range chain {
		want[i] = fresh.Learn(ps)
	}
	memo := pref.NewMemo(w.Road, pref.CandidateSlaves())
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		l := pref.NewLearnerOn(che.Fork())
		l.Memo = memo
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range chain {
				i := n
				if k == 1 {
					i = len(chain) - 1 - n
				}
				if got := l.Learn(chain[i]); !sameResult(got, want[i]) {
					t.Errorf("learner %d, Learn %d: %+v, without the memo %+v", k, i, got, want[i])
					return
				}
			}
			if l.Searches.Memo == 0 {
				t.Errorf("learner %d: the shared memo answered nothing", k)
			}
		}()
	}
	wg.Wait()
}
