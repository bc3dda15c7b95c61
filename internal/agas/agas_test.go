package agas

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestGIDEncoding(t *testing.T) {
	g := MakeGID(3, 42)
	if g.AllocLocality() != 3 || g.Seq() != 42 {
		t.Errorf("gid = %v: locality=%d seq=%d", g, g.AllocLocality(), g.Seq())
	}
	if !g.Valid() {
		t.Error("non-zero gid should be valid")
	}
	if Invalid.Valid() {
		t.Error("zero gid should be invalid")
	}
	if g.String() == "" {
		t.Error("empty String")
	}
}

func TestGIDEncodingProperty(t *testing.T) {
	f := func(loc uint16, seq uint64) bool {
		g := MakeGID(int(loc), seq)
		return g.AllocLocality() == int(loc) && g.Seq() == seq&seqMask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocateResolve(t *testing.T) {
	s := NewService(4)
	g, err := s.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	if g.AllocLocality() != 2 {
		t.Errorf("alloc locality = %d", g.AllocLocality())
	}
	loc, err := s.Resolve(g)
	if err != nil || loc != 2 {
		t.Errorf("Resolve = %d, %v", loc, err)
	}
}

func TestAllocateUnique(t *testing.T) {
	s := NewService(2)
	seen := make(map[GID]bool)
	for i := 0; i < 1000; i++ {
		g := s.MustAllocate(i % 2)
		if seen[g] {
			t.Fatalf("duplicate gid %v", g)
		}
		seen[g] = true
		if !g.Valid() {
			t.Fatal("allocated invalid gid")
		}
	}
}

func TestAllocateBadLocality(t *testing.T) {
	s := NewService(2)
	if _, err := s.Allocate(5); !errors.Is(err, ErrBadLocality) {
		t.Errorf("err = %v", err)
	}
	if _, err := s.Allocate(-1); !errors.Is(err, ErrBadLocality) {
		t.Errorf("err = %v", err)
	}
}

func TestResolveUnknown(t *testing.T) {
	s := NewService(2)
	if _, err := s.Resolve(MakeGID(0, 999)); !errors.Is(err, ErrUnknownGID) {
		t.Errorf("err = %v", err)
	}
}

func TestMoveKeepsGID(t *testing.T) {
	s := NewService(3)
	g := s.MustAllocate(0)
	if err := s.Move(g, 2); err != nil {
		t.Fatal(err)
	}
	loc, err := s.Resolve(g)
	if err != nil || loc != 2 {
		t.Errorf("after move: %d, %v", loc, err)
	}
	// The GID's alloc locality is historical and unchanged.
	if g.AllocLocality() != 0 {
		t.Error("move must not rewrite the GID")
	}
	if err := s.Move(g, 99); !errors.Is(err, ErrBadLocality) {
		t.Errorf("move to bad locality = %v", err)
	}
	if err := s.Move(MakeGID(1, 12345), 0); !errors.Is(err, ErrUnknownGID) {
		t.Errorf("move unknown = %v", err)
	}
}

func TestFree(t *testing.T) {
	s := NewService(1)
	g := s.MustAllocate(0)
	s.Free(g)
	if _, err := s.Resolve(g); !errors.Is(err, ErrUnknownGID) {
		t.Errorf("resolve after free = %v", err)
	}
}

func TestCacheHitsAndMisses(t *testing.T) {
	s := NewService(2)
	c := NewCache(s, 0)
	g := s.MustAllocate(1)
	if _, err := c.Resolve(g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(g); err != nil {
		t.Fatal(err)
	}
	hits, misses := c.HitsMisses()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestCacheInvalidatedOnMove(t *testing.T) {
	s := NewService(3)
	c0 := NewCache(s, 0)
	c1 := NewCache(s, 1)
	g := s.MustAllocate(2)
	// Warm both caches.
	if loc, _ := c0.Resolve(g); loc != 2 {
		t.Fatal("warmup failed")
	}
	if loc, _ := c1.Resolve(g); loc != 2 {
		t.Fatal("warmup failed")
	}
	if err := s.Move(g, 0); err != nil {
		t.Fatal(err)
	}
	// Both caches must see the new home, not the stale entry.
	if loc, err := c0.Resolve(g); err != nil || loc != 0 {
		t.Errorf("c0 after move = %d, %v", loc, err)
	}
	if loc, err := c1.Resolve(g); err != nil || loc != 0 {
		t.Errorf("c1 after move = %d, %v", loc, err)
	}
}

func TestCacheInvalidatedOnFree(t *testing.T) {
	s := NewService(1)
	c := NewCache(s, 0)
	g := s.MustAllocate(0)
	if _, err := c.Resolve(g); err != nil {
		t.Fatal(err)
	}
	s.Free(g)
	if _, err := c.Resolve(g); !errors.Is(err, ErrUnknownGID) {
		t.Errorf("cached resolve after free = %v", err)
	}
}

func TestServicePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewService(0)
}

func TestConcurrentAllocResolveMove(t *testing.T) {
	s := NewService(4)
	caches := make([]*Cache, 4)
	for i := range caches {
		caches[i] = NewCache(s, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g := s.MustAllocate(w % 4)
				if _, err := caches[(w+1)%4].Resolve(g); err != nil {
					t.Errorf("resolve: %v", err)
					return
				}
				if i%10 == 0 {
					if err := s.Move(g, (w+2)%4); err != nil {
						t.Errorf("move: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
