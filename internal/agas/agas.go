// Package agas implements the Active Global Address Space: allocation of
// Global Identifiers (GIDs), resolution of a GID to the locality that
// currently hosts the object, and object migration.
//
// In HPX, every globally addressable object carries a GID that remains
// valid for the object's lifetime even if the object moves between nodes;
// the parcel subsystem consults AGAS to route each parcel, and that
// resolution step is part of the per-message background work the paper's
// metrics capture. This reproduction keeps the same structure: an
// authoritative service plus per-locality caches.
package agas

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/network"
)

// GID is a global identifier. The top 16 bits carry the locality that
// allocated it (its initial home); the low 48 bits are a per-locality
// sequence number. GID 0 is invalid.
type GID uint64

const (
	localityBits = 16
	seqBits      = 48
	seqMask      = (1 << seqBits) - 1
	// MaxLocalities is the largest number of localities an address space
	// supports.
	MaxLocalities = 1 << localityBits
)

// Invalid is the zero, never-allocated GID.
const Invalid GID = 0

// MakeGID builds a GID from an allocating locality and sequence number.
func MakeGID(locality int, seq uint64) GID {
	return GID(uint64(locality)<<seqBits | (seq & seqMask))
}

// AllocLocality returns the locality that originally allocated g.
func (g GID) AllocLocality() int { return int(uint64(g) >> seqBits) }

// Seq returns g's per-locality sequence number.
func (g GID) Seq() uint64 { return uint64(g) & seqMask }

// Valid reports whether g is a usable (non-zero) GID.
func (g GID) Valid() bool { return g != Invalid }

// String renders the GID as locality#seq.
func (g GID) String() string {
	return fmt.Sprintf("gid{%d#%d}", g.AllocLocality(), g.Seq())
}

// Errors returned by the service.
var (
	ErrUnknownGID  = errors.New("agas: unknown GID")
	ErrBadLocality = errors.New("agas: locality out of range")
)

// Service is the authoritative address-space directory. One instance is
// shared by all localities of a runtime (in HPX this is itself a
// distributed service; in-process sharing preserves its semantics).
type Service struct {
	mu         sync.RWMutex
	localities int
	nextSeq    []uint64
	home       map[GID]int
	invalidate []func(GID) // per-locality cache invalidation hooks

	// down marks crash-stopped localities: resolutions to them fail with
	// network.ErrLocalityDown instead of routing parcels at a corpse.
	// Atomic so the per-locality caches can check it lock-free on hits.
	down []atomic.Bool

	// staticRoute enables cluster-mode resolution: a GID absent from the
	// directory resolves to the locality encoded in its top 16 bits (its
	// allocation home) instead of failing. In a multi-process cluster no
	// process holds the whole directory — each one only records GIDs it
	// allocated itself — but allocation homes are deterministic, so the
	// encoded home is authoritative as long as objects do not migrate
	// (cluster mode rejects Move; see EnableStaticRouting).
	staticRoute atomic.Bool
}

// NewService creates a directory for n localities.
func NewService(n int) *Service {
	if n <= 0 || n > MaxLocalities {
		panic(fmt.Sprintf("agas: invalid locality count %d", n))
	}
	return &Service{
		localities: n,
		nextSeq:    make([]uint64, n),
		home:       make(map[GID]int),
		invalidate: make([]func(GID), n),
		down:       make([]atomic.Bool, n),
	}
}

// MarkDown declares a locality crash-stopped: subsequent allocations at
// it fail, and resolutions of GIDs it hosts return
// network.ErrLocalityDown. The mark is reversed only by ClearDown,
// which the cluster layer's rejoin protocol invokes after a healed
// partition; absent a rejoin, crash-stop remains terminal. GIDs homed
// at the dead locality are intentionally retained in the directory so
// resolution distinguishes "host died" from "never existed" — and so a
// rejoined host's objects resolve again without re-registration.
func (s *Service) MarkDown(locality int) {
	if locality >= 0 && locality < s.localities {
		s.down[locality].Store(true)
	}
}

// ClearDown reverses MarkDown for a locality that has rejoined the
// cluster: allocations at it and resolutions of the GIDs it hosts
// succeed again. The retained directory entries mean no state needs
// rebuilding — clearing the flag is the whole un-degradation.
func (s *Service) ClearDown(locality int) {
	if locality >= 0 && locality < s.localities {
		s.down[locality].Store(false)
	}
}

// Down reports whether the locality has been declared crash-stopped.
func (s *Service) Down(locality int) bool {
	return locality >= 0 && locality < s.localities && s.down[locality].Load()
}

// Allocate creates a fresh GID homed at the given locality.
func (s *Service) Allocate(locality int) (GID, error) {
	if locality < 0 || locality >= s.localities {
		return Invalid, fmt.Errorf("%w: %d", ErrBadLocality, locality)
	}
	if s.down[locality].Load() {
		return Invalid, fmt.Errorf("%w: locality %d", network.ErrLocalityDown, locality)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeq[locality]++ // sequence numbers start at 1 so GID 0 stays invalid
	g := MakeGID(locality, s.nextSeq[locality])
	s.home[g] = locality
	return g, nil
}

// MustAllocate allocates a GID, panicking on error; for runtime-internal
// objects whose locality is known valid.
func (s *Service) MustAllocate(locality int) GID {
	g, err := s.Allocate(locality)
	if err != nil {
		panic(err)
	}
	return g
}

// Resolve returns the locality currently hosting g.
func (s *Service) Resolve(g GID) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc, ok := s.home[g]
	if !ok {
		if s.staticRoute.Load() && g.Valid() && g.AllocLocality() < s.localities {
			loc = g.AllocLocality()
			if s.down[loc].Load() {
				return 0, fmt.Errorf("%w: %v homed at locality %d", network.ErrLocalityDown, g, loc)
			}
			return loc, nil
		}
		return 0, fmt.Errorf("%w: %v", ErrUnknownGID, g)
	}
	if s.down[loc].Load() {
		return 0, fmt.Errorf("%w: %v hosted at locality %d", network.ErrLocalityDown, g, loc)
	}
	return loc, nil
}

// EnableStaticRouting switches the directory into cluster mode: GIDs not
// present locally resolve to their allocation locality (the id encoded in
// the GID's top 16 bits), and Move is rejected. A multi-process cluster
// runs one Service per process, each recording only the GIDs its own
// localities allocate; static routing makes the remotely-allocated rest —
// peer root objects, continuations travelling in response parcels —
// resolvable without a directory exchange. Irreversible.
func (s *Service) EnableStaticRouting() { s.staticRoute.Store(true) }

// Free removes g from the directory.
func (s *Service) Free(g GID) {
	s.mu.Lock()
	delete(s.home, g)
	hooks := append([]func(GID){}, s.invalidate...)
	s.mu.Unlock()
	for _, h := range hooks {
		if h != nil {
			h(g)
		}
	}
}

// Move migrates g to a new hosting locality. The GID itself is unchanged
// ("maintained throughout the lifetime of the object even if it is moved
// between nodes"); all locality caches are invalidated.
func (s *Service) Move(g GID, newLocality int) error {
	if newLocality < 0 || newLocality >= s.localities {
		return fmt.Errorf("%w: %d", ErrBadLocality, newLocality)
	}
	if s.staticRoute.Load() {
		return fmt.Errorf("agas: %v: migration unsupported under static routing", g)
	}
	s.mu.Lock()
	if _, ok := s.home[g]; !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrUnknownGID, g)
	}
	s.home[g] = newLocality
	hooks := append([]func(GID){}, s.invalidate...)
	s.mu.Unlock()
	for _, h := range hooks {
		if h != nil {
			h(g)
		}
	}
	return nil
}

// setInvalidateHook installs locality-cache invalidation (used by Cache).
func (s *Service) setInvalidateHook(locality int, h func(GID)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.invalidate[locality] = h
}

// Cache is a per-locality resolution cache in front of the Service. A hit
// avoids the (conceptually remote) directory lookup; migration and free
// invalidate affected entries on every cache.
type Cache struct {
	svc      *Service
	locality int

	mu      sync.RWMutex
	entries map[GID]int
	hits    uint64
	misses  uint64
}

// NewCache creates the resolution cache for one locality and hooks it
// into the service's invalidation fan-out.
func NewCache(svc *Service, locality int) *Cache {
	c := &Cache{svc: svc, locality: locality, entries: make(map[GID]int)}
	svc.setInvalidateHook(locality, c.invalidateEntry)
	return c
}

func (c *Cache) invalidateEntry(g GID) {
	c.mu.Lock()
	delete(c.entries, g)
	c.mu.Unlock()
}

// Resolve returns the hosting locality for g, consulting the cache first.
// Hits on entries pointing at a crash-stopped locality fail with
// network.ErrLocalityDown — the staleness check is lock-free, so the hit
// path stays cheap.
func (c *Cache) Resolve(g GID) (int, error) {
	c.mu.RLock()
	loc, ok := c.entries[g]
	c.mu.RUnlock()
	if ok {
		if c.svc.Down(loc) {
			return 0, fmt.Errorf("%w: %v hosted at locality %d", network.ErrLocalityDown, g, loc)
		}
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return loc, nil
	}
	loc, err := c.svc.Resolve(g)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.misses++
	c.entries[g] = loc
	c.mu.Unlock()
	return loc, nil
}
