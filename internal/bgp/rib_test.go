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
	a := newPathArena()
	for i := 0; i < 1000; i++ {
		p := []topology.ASN{topology.ASN(i%7 + 1), topology.ASN(i%13 + 1), 42}
		h := a.intern(p)
		if got := a.appendPath(nil, h); !reflect.DeepEqual(got, p) {
			t.Fatalf("path %d reads back as %v, want %v", h, got, p)
		}
		if a.hops(h) != 3 || a.intern(p) != h || a.cons(p[0], a.intern(p[1:])) != h {
			t.Fatalf("path %v is not hash-consed", p)
		}
	}
	if n := len(a.cells) - 1; n != 1+13+7*13 {
		t.Fatalf("%d cells, want %d: one per distinct suffix", n, 1+13+7*13)
	}
	if a.intern(nil) != 0 || a.hops(0) != 0 {
		t.Fatal("the empty path is not handle 0")
	}
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
