// Command app is the live user of package lib.
package main

import "flagged.example/internal/lib"

func main() {
	var c lib.Counter
	c.Add()
	println(lib.Used())
}
