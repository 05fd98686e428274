package matching

// ReusedSearches returns how many discovery searches e has skipped because
// their failed record replayed unchanged.
func ReusedSearches(e *Engine) int { return e.reused }

// SkippedLeafPushes returns how many leaf frames e's searchers have not
// pushed because the leaf's vertex has no free neighbour.
func SkippedLeafPushes(e *Engine) int {
	n := 0
	for i := range e.ws {
		n += e.ws[i].skipped
	}
	return n
}
