// Command tool lives in a nested module that builds against the working
// tree of package lib's module.
package main

import "clean.example/internal/lib"

func main() {
	println(lib.FromNested())
}
