// Command tool lives in a nested module that requires package lib's
// module without replacing it with the working tree.
package main

import "flagged.example/internal/lib"

func main() {
	println(lib.FromOtherModule())
}
