// Package counters implements an HPX-style Performance Counter Framework:
// named, typed, queryable instrumentation points that expose intrinsic
// information about the running application in a uniform manner.
//
// The paper relies on this framework twice over: it adds coalescing-
// specific counters (/coalescing/count/parcels, /coalescing/count/messages,
// /coalescing/count/average-parcels-per-message, /coalescing/time/average-
// parcel-arrival, /coalescing/time/parcel-arrival-histogram) and
// scheduler-level counters (/threads/time/average-overhead,
// /threads/background-work, /threads/background-overhead), and then feeds
// their values into both post-mortem analysis and the envisioned runtime-
// adaptive tuning policies.
//
// Counter identity follows HPX's naming scheme:
//
//	/object{instance}/name@parameters
//
// for example
//
//	/coalescing{locality#0}/count/parcels@get_cplx
//	/threads{locality#1/total}/time/average-overhead
//
// The instance and parameters components are optional. Queries may use
// the wildcard "*" for the instance or parameters to select families of
// counters.
package counters

import (
	"errors"
	"fmt"
	"strings"
)

// Path is the parsed form of a counter name.
type Path struct {
	// Object is the subsystem the counter belongs to, e.g. "coalescing"
	// or "threads".
	Object string
	// Instance identifies which runtime entity is observed, e.g.
	// "locality#0" or "locality#0/worker#3". Empty means the counter is
	// singular; "*" in a query matches any instance.
	Instance string
	// Name is the counter name proper, possibly hierarchical, e.g.
	// "count/parcels" or "time/average-overhead".
	Name string
	// Parameters carries counter-specific arguments, for coalescing
	// counters the action name. "*" in a query matches any parameters.
	Parameters string
}

// ErrBadPath reports a malformed counter path.
var ErrBadPath = errors.New("counters: malformed counter path")

// Parse parses a counter path of the form /object{instance}/name@parameters.
func Parse(s string) (Path, error) {
	var p Path
	if !strings.HasPrefix(s, "/") {
		return p, fmt.Errorf("%w: %q must start with '/'", ErrBadPath, s)
	}
	rest := s[1:]
	if rest == "" {
		return p, fmt.Errorf("%w: %q has no object", ErrBadPath, s)
	}
	// Split off @parameters first (rightmost '@').
	if i := strings.LastIndexByte(rest, '@'); i >= 0 {
		p.Parameters = rest[i+1:]
		rest = rest[:i]
	}
	// Object runs until '{' or '/'.
	brace := strings.IndexByte(rest, '{')
	slash := strings.IndexByte(rest, '/')
	switch {
	case brace >= 0 && (slash < 0 || brace < slash):
		p.Object = rest[:brace]
		end := strings.IndexByte(rest[brace:], '}')
		if end < 0 {
			return p, fmt.Errorf("%w: %q has unterminated instance", ErrBadPath, s)
		}
		p.Instance = rest[brace+1 : brace+end]
		rest = rest[brace+end+1:]
		if !strings.HasPrefix(rest, "/") {
			return p, fmt.Errorf("%w: %q missing name after instance", ErrBadPath, s)
		}
		p.Name = rest[1:]
	case slash >= 0:
		p.Object = rest[:slash]
		p.Name = rest[slash+1:]
	default:
		return p, fmt.Errorf("%w: %q has no counter name", ErrBadPath, s)
	}
	if p.Object == "" {
		return p, fmt.Errorf("%w: %q has empty object", ErrBadPath, s)
	}
	if p.Name == "" {
		return p, fmt.Errorf("%w: %q has empty counter name", ErrBadPath, s)
	}
	return p, nil
}

// String renders the canonical textual form of the path.
func (p Path) String() string {
	var sb strings.Builder
	sb.WriteByte('/')
	sb.WriteString(p.Object)
	if p.Instance != "" {
		sb.WriteByte('{')
		sb.WriteString(p.Instance)
		sb.WriteByte('}')
	}
	sb.WriteByte('/')
	sb.WriteString(p.Name)
	if p.Parameters != "" {
		sb.WriteByte('@')
		sb.WriteString(p.Parameters)
	}
	return sb.String()
}

// Matches reports whether the concrete path p is selected by query q.
// The query's Instance and Parameters may be "*" to match anything
// (including empty); all other components compare exactly.
func (p Path) Matches(q Path) bool {
	if p.Object != q.Object || p.Name != q.Name {
		return false
	}
	if q.Instance != "*" && p.Instance != q.Instance {
		return false
	}
	if q.Parameters != "*" && p.Parameters != q.Parameters {
		return false
	}
	return true
}
