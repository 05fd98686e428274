package dyndist

import "repro/internal/graph"

// SparsifierGraph returns the maintained sparsifier itself, slot order
// included.
func (nw *Network) SparsifierGraph() *graph.Dynamic { return nw.ms.Sparsifier() }

// Marks returns v's marks in marking order.
func (nw *Network) Marks(v int32) []int32 { return nw.ms.Marks(v) }
