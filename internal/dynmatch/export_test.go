package dynmatch

// ResolvedOptions returns the options after zero-value resolution through
// internal/params — the Δ, sweep count, and budget floor the maintainer
// actually runs with.
func (mt *Maintainer) ResolvedOptions() Options { return mt.opt }
