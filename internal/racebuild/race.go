//go:build race

package racebuild

// Enabled is true in -race builds.
const Enabled = true
