package matching

// ReusedSearches returns how many discovery searches e has skipped because
// their failed record replayed unchanged.
func ReusedSearches(e *Engine) int { return e.reused }
