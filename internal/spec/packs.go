package spec

import (
	"fmt"
	"strings"
)

// Shipped spec packs beyond the two refcount packs: the same path-pair
// discipline applied to lock acquire/release balance and to file-handle
// lifecycles. Each pack declares its resource kind so reports carry the
// right noun and caches key on the pack content.

// LockText is the DSL source for the lock-imbalance pack: spinlocks and
// mutexes with conditional-acquisition entries. A path pair that is
// caller-indistinguishable but differs in net [l].held is a
// missing-unlock (or double-unlock) bug.
const LockText = `
# Lock-imbalance pack: acquire/release balance on [l].held.
resource lock {
  fields: held;
  balance: zero;
}

summary spin_lock(l) {
  entry { cons: true; changes: [l].held += 1; return: ; }
}
summary spin_unlock(l) {
  entry { cons: true; changes: [l].held -= 1; return: ; }
}
# Conditional acquisition: returns 1 with the lock held, 0 without.
summary spin_trylock(l) {
  entry { cons: [0] == 1; changes: [l].held += 1; return: 1; }
  entry { cons: [0] == 0; changes: ; return: 0; }
}
summary mutex_lock(l) {
  entry { cons: true; changes: [l].held += 1; return: ; }
}
summary mutex_unlock(l) {
  entry { cons: true; changes: [l].held -= 1; return: ; }
}
summary mutex_trylock(l) {
  entry { cons: [0] == 1; changes: [l].held += 1; return: 1; }
  entry { cons: [0] == 0; changes: ; return: 0; }
}
# Interruptible acquisition: 0 with the lock held, -EINTR without.
summary mutex_lock_interruptible(l) {
  entry { cons: [0] == 0; changes: [l].held += 1; return: 0; }
  entry { cons: [0] == -4; changes: ; return: -4; }
}
`

// FDText is the DSL source for the fd-leak pack: open/dup/close plus
// ownership transfer on a successful send, tracked as [f].fd.
const FDText = `
# Fd-leak pack: handle lifecycle balance on [f].fd.
resource fd {
  fields: fd;
  balance: zero;
}

# Allocation-style APIs: two entries, success holds the handle.
summary fd_open(path) {
  attr newref;
  entry { cons: [0] != null; changes: [0].fd += 1; return: [0]; }
  entry { cons: [0] == null; changes: ; return: null; }
}
summary fd_dup(f) {
  attr newref;
  entry { cons: [0] != null; changes: [0].fd += 1; return: [0]; }
  entry { cons: [0] == null; changes: ; return: null; }
}
summary fd_close(f) {
  entry { cons: true; changes: [f].fd -= 1; return: ; }
}
summary fd_get(f) {
  entry { cons: true; changes: [f].fd += 1; return: ; }
}
summary fd_put(f) {
  entry { cons: true; changes: [f].fd -= 1; return: ; }
}
# On success the descriptor's ownership transfers to the receiver: the
# caller must NOT close it again. On failure the caller still owns it.
summary fd_send(sock, f) {
  entry { cons: [0] == 0; changes: [f].fd -= 1; return: 0; }
  entry { cons: [0] == -1; changes: ; return: -1; }
}
`

// Lock returns the parsed lock-imbalance pack.
func Lock() *Specs { return MustParse("lock", LockText) }

// FD returns the parsed fd-leak pack.
func FD() *Specs { return MustParse("fd", FDText) }

// PackNames lists the built-in spec packs in sorted order.
func PackNames() []string { return []string{"fd", "linux-dpm", "lock", "python-c"} }

// Pack resolves a built-in spec pack by name.
func Pack(name string) (*Specs, error) {
	switch name {
	case "linux-dpm":
		return LinuxDPM(), nil
	case "python-c":
		return PythonC(), nil
	case "lock":
		return Lock(), nil
	case "fd":
		return FD(), nil
	}
	return nil, fmt.Errorf("unknown spec pack %q (have %s)", name, strings.Join(PackNames(), ", "))
}
