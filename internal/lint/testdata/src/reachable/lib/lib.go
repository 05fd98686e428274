// Package lib is the miniature module's library. Its exported functions are
// not roots: each is kept only by a path from one.
package lib

// Used is reached from the facade.
func Used() int {
	var s Shape = Circle{}
	apply(byValue)
	return s.Area()
}

// Run is reached from the command's main.
func Run() { hook() }

func apply(f func()) { f() }

// byValue is never called by name; passing it as a value keeps it.
func byValue() {}

// hook keeps byVar: a function named in a var initializer is a root.
var hook = byVar

func byVar() {}

// Shape is called through, so Area is kept on live types only.
type Shape interface{ Area() int }

// Circle is named in Used, so it is live and its Area is reached.
type Circle struct{}

func (Circle) Area() int { return 1 }

// Square is named by no reached body, so its Area is dead; Side stays
// because another package's test selects a method of that name.
type Square struct{}

func (Square) Area() int { return 4 } // want "Square.Area is unreachable"

func (Square) Side() int { return 2 }

// dead calls deadCallee; the callee is reached only from dead code.
func dead() { deadCallee() } // want "dead is unreachable"

func deadCallee() {} // want "deadCallee is unreachable"

// SharedHelper is referenced only from another package's test.
func SharedHelper() {}

// OwnTestOnly is referenced only from this package's own tests, which do
// not keep it.
func OwnTestOnly() {} // want "OwnTestOnly is unreachable"
