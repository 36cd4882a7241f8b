// Package lib holds no deadexport violations: every export has a live
// user, or an ignore directive that names one.
package lib

import "fmt"

// FromCommand is called by the command.
func FromCommand() int { return 1 }

// FromNested is called only by the nested module, whose go.mod replaces
// this module with its directory.
func FromNested() int { return 2 }

// Shape is the interface through which the command calls Area.
type Shape interface {
	Area() float64
}

// Square implements Shape.
type Square struct{ Side float64 }

// Area is called only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// NewSquare returns a Square as a Shape.
func NewSquare(side float64) Shape { return Square{side} }

// Level implements fmt.Stringer.
type Level int

// String is never called by name: fmt calls it.
func (l Level) String() string { return fmt.Sprintf("level %d", int(l)) }

// Drill has no caller in the module.
//
//hdlint:ignore deadexport the README's fault drill calls it
func Drill() int { return DrillStep() }

// DrillStep is reached through Drill, which the directive keeps live.
func DrillStep() int { return 3 }

// Gauge is named outside lib only by the facade's alias.
type Gauge struct{ v int }

// Read is called only through the facade's alias.
func (g *Gauge) Read() int { return g.v }
