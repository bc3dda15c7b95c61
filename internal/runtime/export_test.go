package runtime

import (
	"sort"
	"strings"

	"repro/internal/agas"
)

// GID returns the locality's root object GID.
func (l *Locality) GID() agas.GID { return l.rootGID }

// Component returns the local object with the given GID, if this locality
// hosts it.
func (l *Locality) Component(g agas.GID) (Component, bool) {
	return l.components.get(g)
}

// ComponentCount returns the number of objects hosted at this locality.
func (l *Locality) ComponentCount() int { return l.components.size() }

// Actions returns the sorted names of all registered user actions;
// runtime-internal actions (the "runtime/" namespace) are omitted.
func (rt *Runtime) Actions() []string {
	actions := *rt.actions.Load()
	out := make([]string, 0, len(actions))
	for name := range actions {
		if strings.HasPrefix(name, "runtime/") {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
