package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

// FuzzTraceRead: Read never panics, every accepted trace stays within the
// vertex cap, and Write followed by Read reproduces it exactly.
func FuzzTraceRead(f *testing.F) {
	f.Add("# churn\n\nn 3\n+ 2 0\n")
	f.Add("n 0\n")
	f.Add("n 1099511627776\n")
	f.Add("n 3\n+ 0 9\n")
	f.Add("+ 0 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		if tr.N > graph.MaxTextVertices {
			t.Fatalf("accepted N = %d above the limit %d", tr.N, graph.MaxTextVertices)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("cannot re-encode accepted trace: %v", err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if got.N != tr.N || !slices.Equal(got.Updates, tr.Updates) {
			t.Fatal("round trip changed the trace")
		}
	})
}
