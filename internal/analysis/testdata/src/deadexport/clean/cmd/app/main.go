// Command app is the live user of package lib.
package main

import (
	"fmt"

	"clean.example"
	"clean.example/internal/lib"
)

func main() {
	s := lib.NewSquare(2)
	var g clean.Gauge
	fmt.Println(lib.FromCommand(), s.Area(), lib.Level(3), g.Read())
}
