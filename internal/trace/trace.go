// Package trace provides a replayable text format for dynamic-graph update
// sequences, so dynamic-matching workloads can be generated once, stored,
// and replayed against any of the maintainers (cmd/dyndrive).
//
// Format (whitespace-separated, one update per line):
//
//	# comments
//	n <vertices>
//	+ <u> <v>    insertion
//	- <u> <v>    deletion
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/dynmatch"
	"repro/internal/graph"
)

// Trace is an update sequence over a fixed vertex set.
type Trace struct {
	N       int
	Updates []dynmatch.Update
}

// Write encodes the trace.
func Write(w io.Writer, tr Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", tr.N); err != nil {
		return err
	}
	for _, u := range tr.Updates {
		op := "-"
		if u.Insert {
			op = "+"
		}
		if _, err := fmt.Fprintf(bw, "%s %d %d\n", op, u.U, u.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// A ParseError reports a malformed trace with the 1-based line number and
// the offending token, so a bad line in a multi-megabyte generated trace
// can be found without bisecting the file.
type ParseError struct {
	Line  int    // 1-based line number
	Token string // the offending token ("" when the line is truncated)
	Why   string
}

func (e *ParseError) Error() string {
	if e.Token == "" {
		return fmt.Sprintf("trace: line %d: %s", e.Line, e.Why)
	}
	return fmt.Sprintf("trace: line %d: token %q: %s", e.Line, e.Token, e.Why)
}

func parseErr(line int, token, why string) error {
	return &ParseError{Line: line, Token: token, Why: why}
}

// parseVertex parses one endpoint token and range-checks it against n.
func parseVertex(line int, token string, n int) (int32, error) {
	v, err := strconv.ParseInt(token, 10, 32)
	if err != nil {
		return 0, parseErr(line, token, "not a vertex id")
	}
	if v < 0 || int(v) >= n {
		return 0, parseErr(line, token, fmt.Sprintf("vertex outside [0,%d)", n))
	}
	return int32(v), nil
}

// Read decodes a trace, validating vertex ranges and capping the header's
// vertex count at graph.MaxTextVertices. Errors are *ParseError values
// naming the 1-based line and the offending token.
func Read(r io.Reader) (Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	var tr Trace
	seenHeader := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if !seenHeader {
			if fields[0] != "n" {
				return Trace{}, parseErr(line, fields[0], `want header "n <vertices>"`)
			}
			if len(fields) != 2 {
				return Trace{}, parseErr(line, fields[0], fmt.Sprintf("header has %d fields, want 2", len(fields)))
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return Trace{}, parseErr(line, fields[1], "not a vertex count")
			}
			// A replay allocates O(N) up front, so a 20-byte header must not
			// be able to ask for terabytes.
			if n > graph.MaxTextVertices {
				return Trace{}, parseErr(line, fields[1], fmt.Sprintf("vertex count above the limit %d", graph.MaxTextVertices))
			}
			tr.N = n
			seenHeader = true
			continue
		}
		if fields[0] != "+" && fields[0] != "-" {
			return Trace{}, parseErr(line, fields[0], `want op "+" or "-"`)
		}
		if len(fields) != 3 {
			return Trace{}, parseErr(line, fields[0], fmt.Sprintf("update has %d fields, want 3", len(fields)))
		}
		u, err := parseVertex(line, fields[1], tr.N)
		if err != nil {
			return Trace{}, err
		}
		v, err := parseVertex(line, fields[2], tr.N)
		if err != nil {
			return Trace{}, err
		}
		tr.Updates = append(tr.Updates, dynmatch.Update{Insert: fields[0] == "+", U: u, V: v})
	}
	if err := sc.Err(); err != nil {
		return Trace{}, err
	}
	if !seenHeader {
		return Trace{}, parseErr(max(1, line), "", "empty input: missing header")
	}
	return tr, nil
}
