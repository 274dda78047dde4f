//go:build race

package lower

// raceEnabled reports whether this test binary was built with the race
// detector: allocation-accounting tests skip under it, since it drops
// pooled objects at random.
const raceEnabled = true
