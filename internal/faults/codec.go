package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// The canonical text encoding of a fault plan:
//
//	faultplan v1
//	seed 42
//	drop 0.05
//	dup 0.01
//	delay 0.02 max 3
//	crash 9 at 4 restart 12
//	crash 7 at 10
//
// Zero-valued rate lines and an empty crash schedule are omitted; "crash N
// at R" without a restart clause is a crash-stop. Decode(Encode(p)) equals
// p.normalize() for every valid plan, a property pinned by
// FuzzPlanRoundTrip; Encode, the writer, lives with the tests.

// decodeError builds a parse error naming the 1-based line and the
// offending token.
func decodeError(line int, token, why string) error {
	return fmt.Errorf("faults: line %d: token %q: %s", line, token, why)
}

// Decode parses the canonical text form. Errors name the 1-based line
// number and the offending token. The decoded plan is validated.
func Decode(text string) (Plan, error) {
	var p Plan
	lines := strings.Split(text, "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != "faultplan v1" {
		head := ""
		if len(lines) > 0 {
			head = strings.TrimSpace(lines[0])
		}
		return p, decodeError(1, head, `want header "faultplan v1"`)
	}
	seenSeed := false
	for i := 1; i < len(lines); i++ {
		ln := i + 1
		fields := strings.Fields(lines[i])
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "seed":
			if len(fields) != 2 {
				return p, decodeError(ln, fields[0], "want: seed <uint64>")
			}
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return p, decodeError(ln, fields[1], "not a uint64 seed")
			}
			p.Seed, seenSeed = v, true
		case "drop", "dup":
			if len(fields) != 2 {
				return p, decodeError(ln, fields[0], "want: "+fields[0]+" <rate>")
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return p, decodeError(ln, fields[1], "not a rate")
			}
			if fields[0] == "drop" {
				p.DropRate = v
			} else {
				p.DupRate = v
			}
		case "delay":
			if len(fields) != 4 || fields[2] != "max" {
				return p, decodeError(ln, fields[0], "want: delay <rate> max <rounds>")
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return p, decodeError(ln, fields[1], "not a rate")
			}
			d, err := strconv.Atoi(fields[3])
			if err != nil {
				return p, decodeError(ln, fields[3], "not a round count")
			}
			p.DelayRate, p.MaxDelay = v, d
		case "crash":
			if !(len(fields) == 4 && fields[2] == "at") &&
				!(len(fields) == 6 && fields[2] == "at" && fields[4] == "restart") {
				return p, decodeError(ln, fields[0], "want: crash <node> at <round> [restart <round>]")
			}
			node, err := strconv.ParseInt(fields[1], 10, 32)
			if err != nil {
				return p, decodeError(ln, fields[1], "not a node id")
			}
			round, err := strconv.Atoi(fields[3])
			if err != nil {
				return p, decodeError(ln, fields[3], "not a round")
			}
			c := Crash{Node: int32(node), Round: round}
			if len(fields) == 6 {
				restart, err := strconv.Atoi(fields[5])
				if err != nil {
					return p, decodeError(ln, fields[5], "not a round")
				}
				if restart <= round {
					return p, decodeError(ln, fields[5], "restart must come after the crash round")
				}
				c.Restart = restart
			}
			p.Crashes = append(p.Crashes, c)
		default:
			return p, decodeError(ln, fields[0], "unknown directive")
		}
	}
	if !seenSeed {
		return p, decodeError(len(lines), "", "missing seed line")
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}
