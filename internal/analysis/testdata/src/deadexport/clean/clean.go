// Package clean is the module's facade: it re-exports lib.Gauge by alias.
package clean

import "clean.example/internal/lib"

// Gauge is lib.Gauge under the facade's name.
type Gauge = lib.Gauge
