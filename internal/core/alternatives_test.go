package core

import (
	"slices"
	"testing"

	"repro/internal/roadnet"
)

func TestRouteKFirstEqualsRoute(t *testing.T) {
	r := builtRouter(t)
	n := r.road.NumVertices()
	for i := 0; i < 25; i++ {
		s := roadnet.VertexID((i * 17) % n)
		d := roadnet.VertexID((i*31 + 5) % n)
		single := r.Route(s, d)
		multi := r.RouteK(s, d, 3)
		if len(multi) == 0 {
			t.Fatal("RouteK returned nothing")
		}
		if len(multi[0].Path) != len(single.Path) {
			t.Fatalf("query %d: first alternative differs from Route", i)
		}
		for j := range single.Path {
			if multi[0].Path[j] != single.Path[j] {
				t.Fatalf("query %d: first alternative diverges at %d", i, j)
			}
		}
	}
}

func TestRouteKAlternativesAreValidAndDistinct(t *testing.T) {
	r := builtRouter(t)
	n := r.road.NumVertices()
	sawMulti := false
	for i := 0; i < 60; i++ {
		s := roadnet.VertexID((i * 7) % n)
		d := roadnet.VertexID((i*41 + 3) % n)
		alts := r.RouteK(s, d, 4)
		if len(alts) > 4 {
			t.Fatalf("RouteK returned %d > k results", len(alts))
		}
		if len(alts) > 1 {
			sawMulti = true
		}
		for j, a := range alts {
			if len(a.Path) == 0 {
				continue
			}
			if !a.Path.Valid(r.road) {
				t.Fatalf("query %d: invalid alternative %v", i, a.Path)
			}
			if a.Path[0] != s || a.Path[len(a.Path)-1] != d {
				t.Fatalf("query %d: endpoints wrong", i)
			}
			for _, b := range alts[:j] {
				if slices.Equal(a.Path, b.Path) {
					t.Fatalf("query %d: duplicate alternative %v", i, a.Path)
				}
			}
		}
	}
	if !sawMulti {
		t.Fatal("no query produced more than one alternative")
	}
}

func TestRouteKDegenerate(t *testing.T) {
	r := builtRouter(t)
	alts := r.RouteK(5, 5, 3)
	if len(alts) != 1 || len(alts[0].Path) != 1 {
		t.Fatalf("RouteK(v,v) = %+v", alts)
	}
	if got := r.RouteK(5, 9, 0); len(got) != 1 {
		t.Fatalf("RouteK with k=0 returned %d results", len(got))
	}
}

func TestSubPath(t *testing.T) {
	p := roadnet.Path{1, 2, 3, 4, 5}
	if sub, ok := subPath(p, 2, 4); !ok || len(sub) != 3 || sub[0] != 2 || sub[2] != 4 {
		t.Fatalf("subPath = %v, %v", sub, ok)
	}
	if _, ok := subPath(p, 4, 2); ok {
		t.Fatal("reversed subPath found")
	}
	if _, ok := subPath(p, 9, 2); ok {
		t.Fatal("absent source found")
	}
}
