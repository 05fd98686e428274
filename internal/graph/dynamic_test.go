package graph

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/invariant"
)

// mapDynamic is the per-vertex-map Dynamic that the flat arc table
// replaced, kept as the oracle of FuzzDynamicOps: the same slices, the same
// append-on-insert and swap-remove-on-delete, with one Go map per vertex
// locating the slots.
type mapDynamic struct {
	adj [][]int32
	idx []map[int32]int // idx[v][w] = position of w in adj[v]
	m   int
}

func newMapDynamic(n int) *mapDynamic {
	d := &mapDynamic{adj: make([][]int32, n), idx: make([]map[int32]int, n)}
	for v := range d.idx {
		d.idx[v] = make(map[int32]int)
	}
	return d
}

func (d *mapDynamic) HasEdge(u, v int32) bool {
	_, ok := d.idx[u][v]
	return ok
}

func (d *mapDynamic) Insert(u, v int32) bool {
	if u == v || d.HasEdge(u, v) {
		return false
	}
	d.idx[u][v] = len(d.adj[u])
	d.adj[u] = append(d.adj[u], v)
	d.idx[v][u] = len(d.adj[v])
	d.adj[v] = append(d.adj[v], u)
	d.m++
	return true
}

func (d *mapDynamic) Delete(u, v int32) bool {
	if !d.HasEdge(u, v) {
		return false
	}
	d.removeArc(u, v)
	d.removeArc(v, u)
	d.m--
	return true
}

func (d *mapDynamic) removeArc(u, v int32) {
	i := d.idx[u][v]
	last := len(d.adj[u]) - 1
	moved := d.adj[u][last]
	d.adj[u][i] = moved
	d.idx[u][moved] = i
	d.adj[u] = d.adj[u][:last]
	delete(d.idx[u], v)
}

// FuzzDynamicOps drives a Dynamic and the mapDynamic oracle with the same
// byte-decoded stream of Insert, Delete, HasEdge and slot-exact restores
// (DynamicFromAdjacency of the current adjacency). After every operation
// the results, M(), every Neighbors(v) in exact slot order, and Validate()
// must agree.
func FuzzDynamicOps(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 0, 1, 3, 0, 2, 4, 1, 1, 2, 1, 2, 3, 2, 0, 1, 1, 0, 3})
	f.Add([]byte{31, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 1, 0, 1, 7, 0, 2, 0, 0, 3})
	// Random churn on 24 vertices, long enough to grow the table and to
	// delete from the middle of probe runs and adjacency lists.
	rng := rand.New(rand.NewPCG(1, 2))
	churn := []byte{23}
	for range 800 {
		churn = append(churn, byte(rng.IntN(8)), byte(rng.IntN(24)), byte(rng.IntN(24)))
	}
	f.Add(churn)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%32)
		d, ref := NewDynamic(n), newMapDynamic(n)
		for step, ops := 0, data[1:]; len(ops) >= 3; step, ops = step+1, ops[3:] {
			op, u, v := ops[0]%8, int32(int(ops[1])%n), int32(int(ops[2])%n)
			var got, want bool
			switch {
			case op < 4:
				got, want = d.Insert(u, v), ref.Insert(u, v)
			case op < 6:
				got, want = d.Delete(u, v), ref.Delete(u, v)
			case op < 7:
				got, want = d.HasEdge(u, v), ref.HasEdge(u, v)
			default:
				r, err := DynamicFromAdjacency(d.adj)
				if err != nil {
					t.Fatalf("step %d: restore rejected a valid adjacency: %v", step, err)
				}
				d = r
			}
			if got != want {
				t.Fatalf("step %d: op %d (%d,%d) = %v, oracle %v", step, op, u, v, got, want)
			}
			if d.M() != ref.m {
				t.Fatalf("step %d: M() = %d, oracle %d", step, d.M(), ref.m)
			}
			for w := range n {
				if !slices.Equal(d.Neighbors(int32(w)), ref.adj[w]) {
					t.Fatalf("step %d: Neighbors(%d) = %v, oracle %v", step, w, d.Neighbors(int32(w)), ref.adj[w])
				}
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}

// TestDynamicRejectsOutOfRangeEndpoints checks that every edge method
// panics with an invariant violation on an endpoint outside [0, N()), and
// that the panic comes before any change: the graph is left as it was and
// still validates.
func TestDynamicRejectsOutOfRangeEndpoints(t *testing.T) {
	d := NewDynamic(3)
	d.Insert(0, 1)
	ops := []struct {
		name string
		op   func(u, v int32)
	}{
		{"Insert", func(u, v int32) { d.Insert(u, v) }},
		{"Delete", func(u, v int32) { d.Delete(u, v) }},
		{"HasEdge", func(u, v int32) { d.HasEdge(u, v) }},
	}
	for _, o := range ops {
		name, op := o.name, o.op
		for _, e := range []Edge{{0, 7}, {7, 0}, {-1, 1}, {1, -1}, {3, 3}} {
			func() {
				defer func() {
					var v *invariant.Violation
					if err, _ := recover().(error); !errors.As(err, &v) {
						t.Errorf("%s(%d,%d): recovered %v, want an invariant violation", name, e.U, e.V, err)
					}
				}()
				op(e.U, e.V)
			}()
			if err := d.Validate(); err != nil {
				t.Fatalf("%s(%d,%d) left an invalid graph: %v", name, e.U, e.V, err)
			}
			if d.M() != 1 || !slices.Equal(d.Neighbors(0), []int32{1}) || len(d.Neighbors(2)) != 0 {
				t.Fatalf("%s(%d,%d) changed the graph", name, e.U, e.V)
			}
		}
	}
}

// TestDynamicValidateCatchesCorruptIndex corrupts one arc-table entry at a
// time and checks that Validate reports each.
func TestDynamicValidateCatchesCorruptIndex(t *testing.T) {
	build := func() *Dynamic {
		d := NewDynamic(6)
		for _, e := range []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {3, 4}} {
			d.Insert(e.U, e.V)
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	cell := func(d *Dynamic, u, w int32) uint64 {
		c, ok := d.arcs.lookup(arcKey(u, w))
		if !ok {
			t.Fatalf("arc %d->%d not indexed", u, w)
		}
		return c
	}
	corruptions := []struct {
		name    string
		corrupt func(d *Dynamic)
	}{
		{"wrong slot", func(d *Dynamic) { d.arcs.slots[cell(d, 0, 2)] = 0 }},
		{"slot past the list", func(d *Dynamic) { d.arcs.slots[cell(d, 3, 4)] = 5 }},
		{"stale extra entry", func(d *Dynamic) { d.arcs.insert(arcKey(2, 5), 0) }},
		{"lost entry", func(d *Dynamic) { d.arcs.removeAt(cell(d, 1, 2)) }},
		{"count drift", func(d *Dynamic) { d.arcs.count++ }},
		{"entry left after the arc", func(d *Dynamic) {
			d.adj[4] = d.adj[4][:0]
			d.adj[3] = slices.DeleteFunc(d.adj[3], func(w int32) bool { return w == 4 })
			d.m--
		}},
	}
	for _, c := range corruptions {
		d := build()
		c.corrupt(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt index", c.name)
		} else {
			t.Logf("%s: %v", c.name, err)
		}
	}
}
