// Package lib is the surface scanner's fixture: each name below is either
// referenced from a non-test file or not, in one of the ways the scanner
// must tell apart.
package lib

// TestOnly is called from lib_test.go only: unreferenced.
func TestOnly() int { return 1 }

// Name is converted to fmt.Stringer by the command.
type Name string

// String is never called by name, but implements fmt.Stringer: referenced.
func (n Name) String() string { return string(n) }

// Hot's Size is called.
type Hot struct{}

// Size is called by the command.
func (Hot) Size() int { return 1 }

// Cold is used, its Size is not.
type Cold struct{}

// Size shares its name with Hot.Size, which is called: unreferenced.
func (Cold) Size() int { return 2 }
