package bgp

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"discs/internal/topology"
)

// pointerFree reports where type t holds a Go pointer, which makes the
// collector scan every value of it. Strings, slices, maps, interfaces,
// channels and funcs are pointers underneath; so is the unique.Handle
// inside netip.Addr and netip.Prefix.
func pointerFree(t reflect.Type) error {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
		return fmt.Errorf("%v is a %v", t, t.Kind())
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if err := pointerFree(t.Field(i).Type); err != nil {
				return fmt.Errorf("%v.%s: %w", t, t.Field(i).Name, err)
			}
		}
	}
	return nil
}

// TestRIBPointerFree: the state the RIB holds per route — rows,
// Adj-RIB-In entries, path cells and their index, learned DISCS-Ads —
// is stored in slabs whose element types hold no Go pointers, so the
// collector skips them whatever their size.
func TestRIBPointerFree(t *testing.T) {
	slabs := []struct {
		owner reflect.Type
		field string
	}{
		{reflect.TypeOf(Speaker{}), "rows"},
		{reflect.TypeOf(Speaker{}), "adj"},
		{reflect.TypeOf(Speaker{}), "seen"},
		{reflect.TypeOf(pathArena{}), "cells"},
		{reflect.TypeOf(pathArena{}), "index"},
	}
	for _, s := range slabs {
		f, ok := s.owner.FieldByName(s.field)
		if !ok {
			t.Fatalf("%v has no field %s", s.owner, s.field)
		}
		if err := pointerFree(f.Type.Elem()); err != nil {
			t.Errorf("%v.%s: %v", s.owner, s.field, err)
		}
	}
	// The walk itself catches every pointer-bearing kind.
	for _, v := range []any{
		new(int), []int(nil), map[int]int(nil), "", netip.Addr{}, netip.Prefix{},
		struct{ x any }{}, [2]*int{}, struct{ f func() }{}, struct{ c chan int }{},
	} {
		if pointerFree(reflect.TypeOf(v)) == nil {
			t.Errorf("pointerFree accepts %T", v)
		}
	}
}

// TestPathArenaHashConses: equal paths share a handle, prepend is a
// lookup, and the index survives growth.
func TestPathArenaHashConses(t *testing.T) {
	a := newPathArena(0)
	for i := 0; i < 1000; i++ {
		p := []topology.ASN{topology.ASN(i%7 + 1), topology.ASN(i%13 + 1), 42}
		h := intern(a, p)
		if got := a.appendPath(nil, h); !reflect.DeepEqual(got, p) {
			t.Fatalf("path %d reads back as %v, want %v", h, got, p)
		}
		if a.hops(h) != 3 || intern(a, p) != h || a.cons(p[0], intern(a, p[1:])) != h {
			t.Fatalf("path %v is not hash-consed", p)
		}
		if !a.contains(h, p[1]) || a.contains(h, 99) {
			t.Fatalf("path %v: contains is wrong", p)
		}
	}
	if n := len(a.cells) - 1; n != 1+13+7*13 {
		t.Fatalf("%d cells, want %d: one per distinct suffix", n, 1+13+7*13)
	}
	if intern(a, nil) != 0 || a.hops(0) != 0 {
		t.Fatal("the empty path is not handle 0")
	}
	// A copy into another arena reads back the same hops.
	b := newPathArena(1)
	b.cons(7, 0) // so handles differ between the arenas
	p := []topology.ASN{3, 5, 42}
	h := b.copyPath(a, intern(a, p))
	if got := b.appendPath(nil, h); !reflect.DeepEqual(got, p) || h == intern(a, p) {
		t.Fatalf("copied path %d reads back as %v, want %v", h, got, p)
	}
	if b.copyPath(a, intern(a, p)) != h {
		t.Fatal("copying a path twice is not hash-consed")
	}
}

// intern returns the handle of path in a.
func intern(a *pathArena, path []topology.ASN) uint32 {
	var h uint32
	for i := len(path) - 1; i >= 0; i-- {
		h = a.cons(path[i], h)
	}
	return h
}

// TestAssignShardsRefusesRoutes: path handles index their shard's arena,
// so sharding a network that already holds routes panics.
func TestAssignShardsRefusesRoutes(t *testing.T) {
	net := converged(t)
	defer func() {
		if recover() == nil {
			t.Fatal("AssignShards after convergence did not panic")
		}
	}()
	net.AssignShards(4)
}
