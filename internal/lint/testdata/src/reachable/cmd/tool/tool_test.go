package main

import (
	"testing"

	"reachmod/lib"
)

// TestShared keeps lib.SharedHelper, and every method named Side: a test in
// another package directory is a root.
func TestShared(t *testing.T) {
	lib.SharedHelper()
	_ = lib.Square{}.Side()
}
