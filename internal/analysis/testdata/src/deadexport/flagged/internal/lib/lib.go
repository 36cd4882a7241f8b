// Package lib seeds deadexport violations: exports that no live non-test
// code reaches.
package lib

// Used is called by the command, so it is live.
func Used() int { return 1 }

// Unreferenced has no reference at all.
func Unreferenced() {} // want "func Unreferenced is not referenced"

// TestOnly is referenced only from lib_test.go.
func TestOnly() int { return 2 } // want "func TestOnly is not referenced"

// FromDead is referenced only by Dead, which nothing references.
func FromDead() int { return 3 } // want "func FromDead is not referenced"

// Dead references FromDead and itself.
func Dead(n int) int { // want "func Dead is not referenced"
	if n > 0 {
		return Dead(n - 1)
	}
	return FromDead()
}

// FromOtherModule is referenced only by a nested module that does not
// replace this one, so its reference does not count.
func FromOtherModule() int { return 4 } // want "func FromOtherModule is not referenced"

// Counter is live: the command builds one.
type Counter struct{ n int }

// Add is live: the command calls it.
func (c *Counter) Add() { c.n++ }

// Reset is never called.
func (c *Counter) Reset() { c.n = 0 } // want "method Counter.Reset is not referenced"

// Limit is an unreferenced constant.
const Limit = 8 // want "const Limit is not referenced"

// NoReason carries an ignore directive without a reason: the directive
// is a finding of its own, and it suppresses nothing.
/* want "malformed ignore directive" */ //hdlint:ignore deadexport
func NoReason() {                       // want "func NoReason is not referenced"
}
