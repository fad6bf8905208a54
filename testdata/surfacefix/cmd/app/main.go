// Command app is the fixture's caller.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var cold lib.Cold
	fmt.Println(lib.Name("fixture"), lib.Hot{}.Size(), cold)
}
