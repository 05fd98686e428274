package lib_test

import (
	"testing"

	"reachmod/lib"
)

func TestOwn(t *testing.T) { lib.OwnTestOnly() }
