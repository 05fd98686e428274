// Package reachmod is golden testdata for the reachable check: a miniature
// module whose root facade, command and library exercise every kind of root.
package reachmod

import "reachmod/lib"

// API is exported from the root facade, so it is a root.
func API() int { return lib.Used() + helper() }

func helper() int { return 1 }

func orphan() {} // want "orphan is unreachable"
