//go:build !race

// Package racebuild tells pooled scratch which half of the reset contract
// to keep when it is put back: the normal build clears storage and keeps
// its capacity, and the -race build poisons the storage and drops it, so
// an alias that outlived its borrow reads garbage in the race-enabled
// test suites instead of silently reading recycled data.
package racebuild

// Enabled is true in -race builds.
const Enabled = false
