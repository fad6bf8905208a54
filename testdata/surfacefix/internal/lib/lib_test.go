package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 1 || (Cold{}).Size() != 2 {
		t.Fatal("fixture")
	}
}
