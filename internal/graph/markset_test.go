package graph

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/invariant"
)

// TestMarkSetEnterLeave checks the entered/left results, the swap-remove
// order of Drop, DropAll's marking-order result, and the panics on a
// duplicate mark, a self-loop and an out-of-range endpoint.
func TestMarkSetEnterLeave(t *testing.T) {
	g := NewDynamic(4)
	for _, e := range []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}} {
		g.Insert(e.U, e.V)
	}
	s := NewMarkSet(4)
	if !s.Add(0, 1) || s.Add(1, 0) || !s.Add(0, 2) || !s.Add(0, 3) {
		t.Fatal("Add misreports an edge entering G_Δ")
	}
	if marked, left := s.Drop(0, 1); !marked || left || !slices.Equal(s.Marks(0), []int32{3, 2}) {
		t.Fatalf("Drop(0,1) = %v, %v with marks %v; want true, false and [3 2]", marked, left, s.Marks(0))
	}
	if marked, _ := s.Drop(0, 1); marked {
		t.Fatal("Drop of an absent mark reports it held")
	}
	s.Add(0, 1)
	if left := s.DropAll(0); !slices.Equal(left, []int32{3, 2}) || len(s.Marks(0)) != 0 {
		t.Fatalf("DropAll(0) = %v, want [3 2] (1 still marks {0,1})", left)
	}
	if s.Sparsifier().M() != 1 || !s.Marked(1, 0) || s.Marked(0, 1) {
		t.Fatal("DropAll left the wrong sparsifier or marks")
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	for name, op := range map[string]func(){
		"duplicate":    func() { s.Add(1, 0) },
		"self-loop":    func() { s.Add(2, 2) },
		"out of range": func() { s.Marked(0, 9) },
	} {
		func() {
			defer func() {
				var v *invariant.Violation
				if err, _ := recover().(error); !errors.As(err, &v) {
					t.Errorf("%s: recovered %v, want an invariant violation", name, err)
				}
			}()
			op()
		}()
	}
}

// TestMarkSetValidateCatchesCorruption breaks one invariant at a time.
func TestMarkSetValidateCatchesCorruption(t *testing.T) {
	g := NewDynamic(4)
	g.Insert(0, 1)
	g.Insert(0, 2)
	corruptions := map[string]func(s *MarkSet){
		"mark on a non-edge":  func(s *MarkSet) { s.Add(2, 3) },
		"wrong slot":          func(s *MarkSet) { c, _ := s.index.lookup(arcKey(0, 2)); s.index.slots[c] = 0 },
		"stale index entry":   func(s *MarkSet) { s.index.insert(arcKey(1, 0), 0) },
		"unmarked sparsifier": func(s *MarkSet) { s.sp.Insert(1, 2) },
		"mark off sparsifier": func(s *MarkSet) { s.sp.Delete(0, 1) },
	}
	for name, corrupt := range corruptions {
		s := NewMarkSet(4)
		s.Add(0, 1)
		s.Add(0, 2)
		if err := s.Validate(g); err != nil {
			t.Fatal(err)
		}
		corrupt(s)
		if err := s.Validate(g); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
	}
}
