package counters

import (
	"testing"
	"testing/quick"
)

func TestParseFullPath(t *testing.T) {
	p, err := Parse("/coalescing{locality#0}/count/parcels@get_cplx")
	if err != nil {
		t.Fatal(err)
	}
	want := Path{Object: "coalescing", Instance: "locality#0", Name: "count/parcels", Parameters: "get_cplx"}
	if p != want {
		t.Errorf("Parse = %+v, want %+v", p, want)
	}
}

func TestParseNoInstanceNoParams(t *testing.T) {
	p, err := Parse("/threads/time/average-overhead")
	if err != nil {
		t.Fatal(err)
	}
	want := Path{Object: "threads", Name: "time/average-overhead"}
	if p != want {
		t.Errorf("Parse = %+v, want %+v", p, want)
	}
}

func TestParseInstanceOnly(t *testing.T) {
	p, err := Parse("/threads{locality#1/total}/background-work")
	if err != nil {
		t.Fatal(err)
	}
	want := Path{Object: "threads", Instance: "locality#1/total", Name: "background-work"}
	if p != want {
		t.Errorf("Parse = %+v, want %+v", p, want)
	}
}

func TestParseParamsOnly(t *testing.T) {
	p, err := Parse("/coalescing/count/messages@rotate")
	if err != nil {
		t.Fatal(err)
	}
	want := Path{Object: "coalescing", Name: "count/messages", Parameters: "rotate"}
	if p != want {
		t.Errorf("Parse = %+v, want %+v", p, want)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"nope",
		"/",
		"/objectonly",
		"/obj{unterminated/name",
		"/obj{x}name",  // missing slash after instance
		"/{inst}/name", // empty object
		"/obj/",        // empty name
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestPathStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"/coalescing{locality#0}/count/parcels@get_cplx",
		"/threads/time/average-overhead",
		"/threads{locality#1/total}/background-work",
		"/coalescing/count/messages@rotate",
	} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestPathStringParseProperty(t *testing.T) {
	// Property: for component strings free of structural characters,
	// String followed by Parse is the identity.
	ok := func(s string) bool {
		for _, r := range s {
			switch r {
			case '/', '{', '}', '@':
				return false
			}
		}
		return s != ""
	}
	f := func(obj, inst, name, params string) bool {
		if !ok(obj) || !ok(name) {
			return true
		}
		if inst != "" && !ok(inst) {
			return true
		}
		if params != "" && !ok(params) {
			return true
		}
		p := Path{Object: obj, Instance: inst, Name: name, Parameters: params}
		q, err := Parse(p.String())
		return err == nil && q == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatchesExact(t *testing.T) {
	p := MustParse("/coalescing{locality#0}/count/parcels@act")
	if !p.Matches(p) {
		t.Error("path should match itself")
	}
	q := MustParse("/coalescing{locality#1}/count/parcels@act")
	if p.Matches(q) {
		t.Error("different instances should not match")
	}
}

func TestMatchesWildcards(t *testing.T) {
	p := MustParse("/coalescing{locality#0}/count/parcels@act")
	if !p.Matches(Path{Object: "coalescing", Instance: "*", Name: "count/parcels", Parameters: "act"}) {
		t.Error("instance wildcard failed")
	}
	if !p.Matches(Path{Object: "coalescing", Instance: "locality#0", Name: "count/parcels", Parameters: "*"}) {
		t.Error("parameter wildcard failed")
	}
	if !p.Matches(Path{Object: "coalescing", Instance: "*", Name: "count/parcels", Parameters: "*"}) {
		t.Error("double wildcard failed")
	}
	if p.Matches(Path{Object: "threads", Instance: "*", Name: "count/parcels", Parameters: "*"}) {
		t.Error("object must compare exactly")
	}
	bare := MustParse("/threads/background-work")
	if !bare.Matches(Path{Object: "threads", Instance: "*", Name: "background-work", Parameters: "*"}) {
		t.Error("wildcards should match empty components")
	}
}
