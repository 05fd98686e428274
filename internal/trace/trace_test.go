package trace

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dynmatch"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestRoundTrip(t *testing.T) {
	g := gen.Clique(8)
	tr := Trace{N: 8, Updates: dynmatch.BuildUpdates(g, 1)}
	tr.Updates = append(tr.Updates, dynmatch.ObliviousChurn(g, 5, 2)...)
	var sb strings.Builder
	if err := Write(&sb, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.N != tr.N || len(got.Updates) != len(tr.Updates) {
		t.Fatalf("round trip: N=%d len=%d", got.N, len(got.Updates))
	}
	for i := range got.Updates {
		if got.Updates[i] != tr.Updates[i] {
			t.Fatalf("update %d differs: %+v vs %+v", i, got.Updates[i], tr.Updates[i])
		}
	}
}

func TestReadCommentsAndErrors(t *testing.T) {
	ok := "# churn trace\nn 4\n+ 0 1\n- 0 1\n"
	tr, err := Read(strings.NewReader(ok))
	if err != nil || len(tr.Updates) != 2 || !tr.Updates[0].Insert || tr.Updates[1].Insert {
		t.Fatalf("good trace rejected: %v %+v", err, tr)
	}
	for name, bad := range map[string]string{
		"empty":      "",
		"no header":  "+ 0 1\n",
		"neg n":      "n -2\n",
		"bad op":     "n 3\n* 0 1\n",
		"bad fields": "n 3\n+ x y\n",
		"range":      "n 3\n+ 0 9\n",
	} {
		if _, err := Read(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: accepted %q", name, bad)
		}
	}
}

func TestReplayOnMaintainer(t *testing.T) {
	g := gen.BoundedDiversity(40, 2, 8, 3)
	tr := Trace{N: 40, Updates: dynmatch.BuildUpdates(g, 4)}
	mt := dynmatch.New(tr.N, dynmatch.Options{Beta: 2, Eps: 0.4}, 5)
	for _, u := range tr.Updates {
		u.Apply(mt)
	}
	if mt.Graph().M() != g.M() {
		t.Errorf("replay produced %d edges, want %d", mt.Graph().M(), g.M())
	}
}

// TestReadErrors pins the parse-error contract: every malformed input
// yields a *ParseError carrying the 1-based line number and the offending
// token, and the message contains both.
func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, text string
		line       int
		token      string
	}{
		{"bad header word", "m 10\n", 1, "m"},
		{"bad vertex count", "n ten\n", 1, "ten"},
		{"negative count", "n -3\n", 1, "-3"},
		{"count above limit", "n 1099511627776\n", 1, "1099511627776"},
		{"count one above limit", fmt.Sprintf("# big\nn %d\n", graph.MaxTextVertices+1), 2, strconv.Itoa(graph.MaxTextVertices + 1)},
		{"header arity", "n 10 extra\n", 1, "n"},
		{"bad op", "n 10\n* 1 2\n", 2, "*"},
		{"update arity", "n 10\n+ 1\n", 2, "+"},
		{"bad endpoint", "n 10\n+ 1 two\n", 2, "two"},
		{"out of range", "n 10\n# pad\n\n+ 3 10\n", 4, "10"},
		{"negative vertex", "n 10\n- -1 2\n", 2, "-1"},
		{"empty input", "# only comments\n", 1, ""},
	}
	for _, c := range cases {
		_, err := Read(strings.NewReader(c.text))
		if err == nil {
			t.Errorf("%s: Read accepted %q", c.name, c.text)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error %v is not a *ParseError", c.name, err)
			continue
		}
		if pe.Line != c.line || pe.Token != c.token {
			t.Errorf("%s: got line %d token %q, want line %d token %q (%v)",
				c.name, pe.Line, pe.Token, c.line, c.token, err)
		}
		if !strings.Contains(err.Error(), "line ") {
			t.Errorf("%s: message %q does not name the line", c.name, err)
		}
	}
}
