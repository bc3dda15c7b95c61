package counters

import (
	"fmt"
	"sort"
	"sync"
)

// Registry holds a set of counters and supports exact lookup, wildcard
// query, discovery and bulk snapshot/reset — the operations HPX exposes
// through its performance-counter client API (and on the command line via
// --hpx:print-counter).
//
// A Registry is safe for concurrent use. Each locality owns one registry;
// a parent registry may aggregate them via Attach.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]Counter
	children []*Registry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]Counter)}
}

// Register adds c to the registry. It fails if a counter with the same
// canonical path already exists.
func (r *Registry) Register(c Counter) error {
	key := c.Path().String()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.counters[key]; dup {
		return fmt.Errorf("counters: duplicate registration of %s", key)
	}
	r.counters[key] = c
	return nil
}

// MustRegister registers c, panicking on duplicates. Registration happens
// at subsystem construction, so a duplicate is programmer error.
func (r *Registry) MustRegister(c Counter) {
	if err := r.Register(c); err != nil {
		panic(err)
	}
}

// Unregister removes the counter with the given path, reporting whether
// it was present.
func (r *Registry) Unregister(path Path) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := path.String()
	_, ok := r.counters[key]
	delete(r.counters, key)
	return ok
}

// Attach links a child registry (for example a remote locality's) so its
// counters are visible through queries on r. Attach does not copy:
// queries see the child's live counters.
func (r *Registry) Attach(child *Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.children = append(r.children, child)
}

// Get returns the counter with the exact path, if present.
func (r *Registry) Get(path string) (Counter, bool) {
	r.mu.RLock()
	c, ok := r.counters[path]
	children := r.children
	r.mu.RUnlock()
	if ok {
		return c, true
	}
	for _, ch := range children {
		if c, ok := ch.Get(path); ok {
			return c, true
		}
	}
	return nil, false
}

// Value returns the scalar value of the counter with the exact path.
func (r *Registry) Value(path string) (float64, error) {
	c, ok := r.Get(path)
	if !ok {
		return 0, fmt.Errorf("counters: unknown counter %q", path)
	}
	return c.Value(), nil
}

// Query returns all counters selected by the query path, which may use
// "*" for the instance and/or parameters. Results are sorted by path.
func (r *Registry) Query(query string) ([]Counter, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	var out []Counter
	r.collect(q, &out)
	sort.Slice(out, func(i, j int) bool {
		return out[i].Path().String() < out[j].Path().String()
	})
	return out, nil
}

func (r *Registry) collect(q Path, out *[]Counter) {
	r.mu.RLock()
	for _, c := range r.counters {
		if c.Path().Matches(q) {
			*out = append(*out, c)
		}
	}
	children := r.children
	r.mu.RUnlock()
	for _, ch := range children {
		ch.collect(q, out)
	}
}

// Discover returns the sorted canonical paths of every counter reachable
// from r, mirroring HPX's --hpx:list-counters.
func (r *Registry) Discover() []string {
	var out []string
	r.discover(&out)
	sort.Strings(out)
	return out
}

func (r *Registry) discover(out *[]string) {
	r.mu.RLock()
	for k := range r.counters {
		*out = append(*out, k)
	}
	children := r.children
	r.mu.RUnlock()
	for _, ch := range children {
		ch.discover(out)
	}
}

// ResetAll resets every reachable counter, the equivalent of HPX's
// reset-on-read when starting a fresh observation interval.
func (r *Registry) ResetAll() {
	r.mu.RLock()
	cs := make([]Counter, 0, len(r.counters))
	for _, c := range r.counters {
		cs = append(cs, c)
	}
	children := r.children
	r.mu.RUnlock()
	for _, c := range cs {
		c.Reset()
	}
	for _, ch := range children {
		ch.ResetAll()
	}
}
