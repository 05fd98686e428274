package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// Encode renders the plan in canonical form.
func Encode(p Plan) string {
	p = p.normalize()
	var b strings.Builder
	b.WriteString("faultplan v1\n")
	fmt.Fprintf(&b, "seed %d\n", p.Seed)
	if p.DropRate != 0 {
		fmt.Fprintf(&b, "drop %s\n", strconv.FormatFloat(p.DropRate, 'g', -1, 64))
	}
	if p.DupRate != 0 {
		fmt.Fprintf(&b, "dup %s\n", strconv.FormatFloat(p.DupRate, 'g', -1, 64))
	}
	if p.DelayRate != 0 {
		fmt.Fprintf(&b, "delay %s max %d\n", strconv.FormatFloat(p.DelayRate, 'g', -1, 64), p.MaxDelay)
	}
	for _, c := range p.Crashes {
		if c.Stop() {
			fmt.Fprintf(&b, "crash %d at %d\n", c.Node, c.Round)
		} else {
			fmt.Fprintf(&b, "crash %d at %d restart %d\n", c.Node, c.Round, c.Restart)
		}
	}
	return b.String()
}
