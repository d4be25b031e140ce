package core

import (
	"fmt"
	"sort"
	"sync"
)

// Factory constructs a fresh Backend instance. Factories must be cheap: the
// facade builds a new backend per run so stateful backends (fusion buffers,
// stabilizer shadows, cluster traffic counters) never leak state between
// runs.
type Factory func() Backend

// registry maps backend names to factories. Engine packages register
// themselves from init, so any binary importing an engine can select it by
// name; the tqsim facade imports every engine and therefore always sees the
// full set.
var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
	// external names engines that are selectable through the public API but
	// do not plug into the tree executor's gate-apply interface (the exact
	// density-matrix engine runs whole circuits). Values document why.
	external = map[string]string{}
)

// Register installs a gate-apply backend factory under name. Registering a
// duplicate name panics: backend names are part of the public API surface
// and collisions are programmer error.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" || f == nil {
		panic("core: Register needs a name and a factory")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: backend %q registered twice", name))
	}
	if _, dup := external[name]; dup {
		panic(fmt.Sprintf("core: backend %q registered twice", name))
	}
	registry[name] = f
}

// RegisterExternal records an engine that is selectable by name through the
// public API but runs through a whole-circuit path outside the tree executor
// (NewBackend returns an error directing callers to that path). note
// documents the engine's execution model for Describe.
func RegisterExternal(name, note string) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: backend %q registered twice", name))
	}
	if _, dup := external[name]; dup {
		panic(fmt.Sprintf("core: backend %q registered twice", name))
	}
	external[name] = note
}

// NewBackend constructs the named backend. The empty name selects the plain
// state-vector backend. Unknown names and external (whole-circuit) engines
// return an error listing the valid choices.
func NewBackend(name string) (Backend, error) {
	if name == "" {
		return PlainBackend{}, nil
	}
	registryMu.RLock()
	f, ok := registry[name]
	note, ext := external[name]
	registryMu.RUnlock()
	if ok {
		return f(), nil
	}
	if ext {
		return nil, fmt.Errorf("core: backend %q is not a gate-apply backend (%s)", name, note)
	}
	return nil, fmt.Errorf("core: unknown backend %q (have %v)", name, Backends())
}

// IsExternal reports whether name is a registered whole-circuit engine.
func IsExternal(name string) bool {
	registryMu.RLock()
	defer registryMu.RUnlock()
	_, ok := external[name]
	return ok
}

// Backends returns every registered backend name (gate-apply and external),
// sorted.
func Backends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry)+len(external))
	for name := range registry {
		out = append(out, name)
	}
	for name := range external {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("statevec", func() Backend { return PlainBackend{} })
}
