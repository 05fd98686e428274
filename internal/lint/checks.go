package lint

import "sort"

// AllChecks returns the full check catalog, in the order diagnostics are
// documented in DESIGN.md §8. Adding a check means implementing the Check
// interface (or ModuleCheck for module-scoped passes), listing it here,
// giving it a severity below, and a golden testdata package under
// internal/lint/testdata/src/<name>/.
func AllChecks() []Check {
	return []Check{
		Determinism{},
		NoAlloc{},
		NoAllocDeep{},
		PanicDiscipline{},
		ErrWrap{},
		DecodeBound{},
		GuardedBy{},
		Reachable{},
	}
}

// CheckNames returns the names of all registered checks.
func CheckNames() []string {
	checks := AllChecks()
	names := make([]string, len(checks))
	for i, c := range checks {
		names[i] = c.Name()
	}
	return names
}

// CheckSeverity maps a check name to its reporting severity. Everything that
// pins a correctness or performance contract is an error; guardedby is a
// warning while the lock-discipline annotations roll out (the lexical
// abstraction is deliberately conservative, and the race detector remains the
// runtime backstop). The "lint" pseudo-check (malformed directives, unknown
// check names) is always an error: broken annotations must not rot silently.
func CheckSeverity(name string) string {
	if name == "guardedby" {
		return "warning"
	}
	return "error"
}

// SelectChecks filters the catalog down to a comma-separated name list, in
// catalog order. An empty selector means all checks. Unknown names are
// returned so the caller can fail loudly instead of silently running a
// subset.
func SelectChecks(names []string) (checks []Check, unknown []string) {
	if len(names) == 0 {
		return AllChecks(), nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	for _, c := range AllChecks() {
		if want[c.Name()] {
			checks = append(checks, c)
			delete(want, c.Name())
		}
	}
	for n := range want {
		unknown = append(unknown, n)
	}
	sort.Strings(unknown)
	return checks, unknown
}
